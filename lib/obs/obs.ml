(* Telemetry core: named counters, gauges, timers with online stddev,
   log-bucketed histograms, hierarchical spans, structured events and a
   Chrome-trace-event timeline, backed by an in-memory registry with a
   JSON serializer/reader and an optional Logs-based live sink.

   Everything is disabled by default: every recording entry point checks a
   single flag, so instrumented hot paths cost one branch while telemetry
   is off. The registry is process-global and thread-safe: mutations take
   one mutex (contended only while telemetry is enabled) and the span stack
   is domain-local. *)

let enabled_flag = ref false
let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b

(* One lock for the whole registry: recording is rare (telemetry off) or
   cheap (an int/float update) relative to the analyses being measured. *)
let reg_mutex = Mutex.create ()

let locked f =
  Mutex.lock reg_mutex;
  match f () with
  | v ->
      Mutex.unlock reg_mutex;
      v
  | exception e ->
      Mutex.unlock reg_mutex;
      raise e

let log_src = Logs.Src.create "sdfalloc.obs" ~doc:"Telemetry"

module Log = (val Logs.src_log log_src)

type field = String of string | Int of int | Float of float | Bool of bool

type timer_state = {
  mutable t_count : int;
  mutable t_total : float;
  mutable t_min : float;
  mutable t_max : float;
  (* Welford's online mean/M2, so stddev costs two float updates in place
     and no allocation on the record path. *)
  mutable t_mean : float;
  mutable t_m2 : float;
}

(* Power-of-two value buckets: index 64 holds [0.5, 1), one [Float.frexp]
   per record. 128 buckets cover 2^-64 .. 2^63, far beyond any duration or
   rate this flow measures; everything outside clamps to the edge
   buckets. *)
let hist_buckets = 128

let hist_zero = 64

type histogram_state = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_counts : int array;
}

type event = { ev_kind : string; ev_fields : (string * field) list }

type output =
  | Span_end of { path : string; seconds : float }
  | Event_record of { kind : string; fields : (string * field) list }

let counters : (string, int ref) Hashtbl.t = Hashtbl.create 64
let gauges : (string, float) Hashtbl.t = Hashtbl.create 64
let timers : (string, timer_state) Hashtbl.t = Hashtbl.create 64
let histograms : (string, histogram_state) Hashtbl.t = Hashtbl.create 16

(* Newest first; serialized oldest first. Capped so that a long benchmark
   run cannot grow the registry without bound; the overflow is counted per
   event kind. *)
let events : event list ref = ref []
let events_stored = ref 0
let events_dropped : (string, int) Hashtbl.t = Hashtbl.create 8
let max_events = ref 10_000
let set_event_cap n = locked (fun () -> max_events := max 0 n)
let sinks : (output -> unit) list ref = ref []
let notify o = List.iter (fun f -> f o) !sinks

let reset () =
  locked (fun () ->
      (* Zero counters and histograms in place so handles from
         {!Counter.make} / {!Histogram.make} stay live. *)
      Hashtbl.iter (fun _ r -> r := 0) counters;
      Hashtbl.iter
        (fun _ h ->
          h.h_count <- 0;
          h.h_sum <- 0.;
          h.h_min <- 0.;
          h.h_max <- 0.;
          Array.fill h.h_counts 0 hist_buckets 0)
        histograms;
      Hashtbl.reset gauges;
      Hashtbl.reset timers;
      events := [];
      events_stored := 0;
      Hashtbl.reset events_dropped)

let sorted_tbl tbl f =
  Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare (a : string) b)

module Counter = struct
  type t = int ref

  let make name =
    locked (fun () ->
        match Hashtbl.find_opt counters name with
        | Some r -> r
        | None ->
            let r = ref 0 in
            Hashtbl.add counters name r;
            r)

  let incr ?(by = 1) t =
    if enabled () then locked (fun () -> t := !t + by)

  let add name by =
    if enabled () then begin
      let r = make name in
      locked (fun () -> r := !r + by)
    end

  let value name =
    locked (fun () ->
        match Hashtbl.find_opt counters name with Some r -> !r | None -> 0)
end

module Gauge = struct
  let set name v =
    if enabled () then locked (fun () -> Hashtbl.replace gauges name v)

  let set_int name v = set name (float_of_int v)
  let value name = locked (fun () -> Hashtbl.find_opt gauges name)
end

module Timer = struct
  type snapshot = {
    count : int;
    total_s : float;
    min_s : float;
    max_s : float;
    stddev_s : float;
  }

  let record_always name dt =
    locked (fun () ->
        match Hashtbl.find_opt timers name with
        | Some t ->
            t.t_count <- t.t_count + 1;
            t.t_total <- t.t_total +. dt;
            if dt < t.t_min then t.t_min <- dt;
            if dt > t.t_max then t.t_max <- dt;
            let d = dt -. t.t_mean in
            t.t_mean <- t.t_mean +. (d /. float_of_int t.t_count);
            t.t_m2 <- t.t_m2 +. (d *. (dt -. t.t_mean))
        | None ->
            Hashtbl.add timers name
              {
                t_count = 1;
                t_total = dt;
                t_min = dt;
                t_max = dt;
                t_mean = dt;
                t_m2 = 0.;
              })

  let record name dt = if enabled () then record_always name dt

  (* Population stddev; for n = 1 the M2 term is 0 by construction. *)
  let stddev t =
    if t.t_count = 0 then 0. else sqrt (t.t_m2 /. float_of_int t.t_count)

  (* Wall-clock, not [Sys.time]: process CPU time sums over every running
     domain, so it is meaningless for a span measured on one domain of a
     parallel run. *)
  let now () = Unix.gettimeofday ()

  let time name f =
    if not (enabled ()) then f ()
    else begin
      let t0 = now () in
      Fun.protect ~finally:(fun () -> record_always name (now () -. t0)) f
    end

  let snapshot name =
    locked (fun () ->
        Option.map
          (fun t ->
            {
              count = t.t_count;
              total_s = t.t_total;
              min_s = t.t_min;
              max_s = t.t_max;
              stddev_s = stddev t;
            })
          (Hashtbl.find_opt timers name))
end

module Histogram = struct
  type t = histogram_state

  let make name =
    locked (fun () ->
        match Hashtbl.find_opt histograms name with
        | Some h -> h
        | None ->
            let h =
              {
                h_count = 0;
                h_sum = 0.;
                h_min = 0.;
                h_max = 0.;
                h_counts = Array.make hist_buckets 0;
              }
            in
            Hashtbl.add histograms name h;
            h)

  let bucket_of v =
    if v <= 0. then 0
    else begin
      let _, e = Float.frexp v in
      let i = e + hist_zero in
      if i < 1 then 1 else if i >= hist_buckets then hist_buckets - 1 else i
    end

  (* Geometric midpoint of bucket [i] = [2^(i-65), 2^(i-64)). *)
  let bucket_rep i = Float.ldexp (sqrt 0.5) (i - hist_zero)

  let record h v =
    if enabled () then
      locked (fun () ->
          if h.h_count = 0 then begin
            h.h_min <- v;
            h.h_max <- v
          end
          else begin
            if v < h.h_min then h.h_min <- v;
            if v > h.h_max then h.h_max <- v
          end;
          h.h_count <- h.h_count + 1;
          h.h_sum <- h.h_sum +. v;
          let i = bucket_of v in
          h.h_counts.(i) <- h.h_counts.(i) + 1)

  let add name v = if enabled () then record (make name) v

  let time h f =
    if not (enabled ()) then f ()
    else begin
      let t0 = Timer.now () in
      Fun.protect ~finally:(fun () -> record h (Timer.now () -. t0)) f
    end

  (* Quantile from the bucket cumulative; exact within one bucket (a
     factor of 2), clamped to the observed range so degenerate histograms
     report exact values. Caller holds the registry lock. *)
  let quantile_locked h q =
    if h.h_count = 0 then 0.
    else begin
      let target =
        let r = int_of_float (ceil (q *. float_of_int h.h_count)) in
        if r < 1 then 1 else if r > h.h_count then h.h_count else r
      in
      let rec walk i cum =
        if i >= hist_buckets then h.h_max
        else begin
          let cum = cum + h.h_counts.(i) in
          if cum >= target then
            if i = 0 then h.h_min else bucket_rep i
          else walk (i + 1) cum
        end
      in
      let v = walk 0 0 in
      if v < h.h_min then h.h_min else if v > h.h_max then h.h_max else v
    end

  type snapshot = {
    count : int;
    p50 : float;
    p90 : float;
    p99 : float;
    min : float;
    max : float;
  }

  let snap_locked h =
    {
      count = h.h_count;
      p50 = quantile_locked h 0.50;
      p90 = quantile_locked h 0.90;
      p99 = quantile_locked h 0.99;
      min = h.h_min;
      max = h.h_max;
    }

  let snapshot name =
    locked (fun () ->
        Option.map snap_locked (Hashtbl.find_opt histograms name))

  let all () =
    locked (fun () ->
        Hashtbl.fold (fun k h acc -> (k, snap_locked h) :: acc) histograms []
        |> List.sort (fun (a, _) (b, _) -> compare (a : string) b))
end

let counters_snapshot () = locked (fun () -> sorted_tbl counters (fun r -> !r))

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Assoc of (string * t) list

  let escape buf s =
    Stdlib.String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

  (* JSON has no inf/nan literal; clamp to 0 rather than emit an invalid
     document. *)
  let number f =
    if not (Float.is_finite f) then "0"
    else if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.0f" f
    else Printf.sprintf "%.9g" f

  let rec emit buf ind = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (number f)
    | String s ->
        Buffer.add_char buf '"';
        escape buf s;
        Buffer.add_char buf '"'
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_string buf "[\n";
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_string buf ",\n";
            Buffer.add_string buf (Stdlib.String.make (ind + 2) ' ');
            emit buf (ind + 2) item)
          items;
        Buffer.add_char buf '\n';
        Buffer.add_string buf (Stdlib.String.make ind ' ');
        Buffer.add_char buf ']'
    | Assoc [] -> Buffer.add_string buf "{}"
    | Assoc kvs ->
        Buffer.add_string buf "{\n";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_string buf ",\n";
            Buffer.add_string buf (Stdlib.String.make (ind + 2) ' ');
            Buffer.add_char buf '"';
            escape buf k;
            Buffer.add_string buf "\": ";
            emit buf (ind + 2) v)
          kvs;
        Buffer.add_char buf '\n';
        Buffer.add_string buf (Stdlib.String.make ind ' ');
        Buffer.add_char buf '}'

  let to_string v =
    let buf = Buffer.create 1024 in
    emit buf 0 v;
    Buffer.add_char buf '\n';
    Buffer.contents buf

  (* Single-line form for newline-delimited protocols (the sdf3_serve wire
     format and the batch/server journals): no spaces, no trailing
     newline, same escaping as [to_string]. *)
  let rec emit_compact buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (number f)
    | String s ->
        Buffer.add_char buf '"';
        escape buf s;
        Buffer.add_char buf '"'
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            emit_compact buf item)
          items;
        Buffer.add_char buf ']'
    | Assoc kvs ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '"';
            escape buf k;
            Buffer.add_string buf "\":";
            emit_compact buf v)
          kvs;
        Buffer.add_char buf '}'

  let to_compact_string v =
    let buf = Buffer.create 256 in
    emit_compact buf v;
    Buffer.contents buf

  exception Parse_error of string

  (* Recursive-descent reader for the documents this library writes (and
     ordinary machine-generated JSON). Non-ASCII \uXXXX escapes are kept
     verbatim: the serializer never emits them and the consumers
     (validator, report tables) only compare or re-escape strings. *)
  let parse s =
    let n = Stdlib.String.length s in
    let pos = ref 0 in
    let fail msg =
      raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos))
    in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let skip_ws () =
      while
        !pos < n
        && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
      do
        incr pos
      done
    in
    let expect c =
      if !pos < n && s.[!pos] = c then incr pos
      else fail (Printf.sprintf "expected '%c'" c)
    in
    let literal lit v =
      let l = Stdlib.String.length lit in
      if !pos + l <= n && Stdlib.String.sub s !pos l = lit then begin
        pos := !pos + l;
        v
      end
      else fail (Printf.sprintf "expected %s" lit)
    in
    let hex4 () =
      if !pos + 4 > n then fail "truncated \\u escape";
      let h = Stdlib.String.sub s !pos 4 in
      pos := !pos + 4;
      match int_of_string_opt ("0x" ^ h) with
      | Some c -> (c, h)
      | None -> fail "invalid \\u escape"
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec loop () =
        if !pos >= n then fail "unterminated string";
        match s.[!pos] with
        | '"' ->
            incr pos;
            Buffer.contents buf
        | '\\' ->
            incr pos;
            if !pos >= n then fail "unterminated escape";
            let c = s.[!pos] in
            incr pos;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                let code, raw = hex4 () in
                if code < 0x80 then Buffer.add_char buf (Char.chr code)
                else Buffer.add_string buf ("\\u" ^ raw)
            | c -> fail (Printf.sprintf "invalid escape '\\%c'" c));
            loop ()
        | c ->
            incr pos;
            Buffer.add_char buf c;
            loop ()
      in
      loop ()
    in
    let parse_number () =
      let start = !pos in
      let numchar c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && numchar s.[!pos] do
        incr pos
      done;
      let lex = Stdlib.String.sub s start (!pos - start) in
      let floaty =
        Stdlib.String.exists
          (fun c -> c = '.' || c = 'e' || c = 'E')
          lex
      in
      if floaty then
        match float_of_string_opt lex with
        | Some f -> Float f
        | None -> fail (Printf.sprintf "invalid number %S" lex)
      else
        match int_of_string_opt lex with
        | Some i -> Int i
        | None -> (
            match float_of_string_opt lex with
            | Some f -> Float f
            | None -> fail (Printf.sprintf "invalid number %S" lex))
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | Some '{' ->
          incr pos;
          skip_ws ();
          if peek () = Some '}' then begin
            incr pos;
            Assoc []
          end
          else begin
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  incr pos;
                  members ((k, v) :: acc)
              | Some '}' ->
                  incr pos;
                  Assoc (List.rev ((k, v) :: acc))
              | _ -> fail "expected ',' or '}'"
            in
            members []
          end
      | Some '[' ->
          incr pos;
          skip_ws ();
          if peek () = Some ']' then begin
            incr pos;
            List []
          end
          else begin
            let rec elements acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  incr pos;
                  elements (v :: acc)
              | Some ']' ->
                  incr pos;
                  List (List.rev (v :: acc))
              | _ -> fail "expected ',' or ']'"
            in
            elements []
          end
      | Some '"' -> String (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some ('-' | '0' .. '9') -> parse_number ()
      | Some c -> fail (Printf.sprintf "unexpected character '%c'" c)
      | None -> fail "unexpected end of input"
    in
    match parse_value () with
    | v ->
        skip_ws ();
        if !pos <> n then
          Error (Printf.sprintf "trailing garbage at offset %d" !pos)
        else Ok v
    | exception Parse_error msg -> Error msg

  let member k = function Assoc kvs -> List.assoc_opt k kvs | _ -> None
end

let field_to_json = function
  | String s -> Json.String s
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Bool b -> Json.Bool b

module Trace = struct
  type ev = {
    e_name : string;
    e_ph : char;
    e_ts : float; (* microseconds since the trace origin *)
    e_tid : int;
    e_cat : string; (* "" = none *)
    e_id : int; (* async arc id; -1 = none *)
    e_args : (string * field) list;
  }

  let started_flag = ref false
  let origin = ref 0.
  let buf : ev list ref = ref [] (* newest first *)
  let stored = ref 0
  let dropped_count = ref 0
  let cap = ref 1_000_000
  let last_ts : (int, float) Hashtbl.t = Hashtbl.create 16
  let thread_names : (int, string) Hashtbl.t = Hashtbl.create 16

  let start () =
    locked (fun () ->
        started_flag := true;
        if !origin = 0. then origin := Unix.gettimeofday ())

  let active () = !started_flag
  let set_cap n = locked (fun () -> cap := max 0 n)
  let dropped () = locked (fun () -> !dropped_count)

  let reset () =
    locked (fun () ->
        started_flag := false;
        origin := 0.;
        buf := [];
        stored := 0;
        dropped_count := 0;
        Hashtbl.reset last_ts;
        Hashtbl.reset thread_names)

  let self_tid () = (Domain.self () :> int)

  let set_thread_name name =
    let tid = self_tid () in
    locked (fun () -> Hashtbl.replace thread_names tid name)

  let recording () = !started_flag && !enabled_flag

  let emit_ev ?(cat = "") ?(id = -1) ~ph ~args name =
    if recording () then begin
      let tid = self_tid () in
      locked (fun () ->
          if !stored >= !cap then incr dropped_count
          else begin
            (* Timestamp under the lock: array order is emission order,
               and clamping makes each track non-decreasing even if the
               wall clock steps backwards. *)
            let ts = (Unix.gettimeofday () -. !origin) *. 1e6 in
            let ts =
              match Hashtbl.find_opt last_ts tid with
              | Some prev when ts < prev -> prev
              | _ -> ts
            in
            Hashtbl.replace last_ts tid ts;
            buf :=
              {
                e_name = name;
                e_ph = ph;
                e_ts = ts;
                e_tid = tid;
                e_cat = cat;
                e_id = id;
                e_args = args;
              }
              :: !buf;
            incr stored
          end)
    end

  let span_begin name = emit_ev ~ph:'B' ~args:[] name
  let span_end name = emit_ev ~ph:'E' ~args:[] name
  let instant ?(args = []) name = emit_ev ~ph:'i' ~args name
  let counter name v = emit_ev ~ph:'C' ~args:[ ("value", Float v) ] name

  let async_begin ?(cat = "async") ~id name =
    emit_ev ~cat ~id ~ph:'b' ~args:[] name

  let async_end ?(cat = "async") ~id name =
    emit_ev ~cat ~id ~ph:'e' ~args:[] name

  let meta_json ~tid ~name ~value =
    Json.Assoc
      [
        ("name", Json.String name);
        ("ph", Json.String "M");
        ("ts", Json.Float 0.);
        ("pid", Json.Int 1);
        ("tid", Json.Int tid);
        ("args", Json.Assoc [ ("name", Json.String value) ]);
      ]

  let ev_json e =
    let fields =
      [
        ("name", Json.String e.e_name);
        ("ph", Json.String (Stdlib.String.make 1 e.e_ph));
        ("ts", Json.Float e.e_ts);
        ("pid", Json.Int 1);
        ("tid", Json.Int e.e_tid);
      ]
    in
    let fields =
      if e.e_cat = "" then fields
      else fields @ [ ("cat", Json.String e.e_cat) ]
    in
    let fields =
      if e.e_id < 0 then fields else fields @ [ ("id", Json.Int e.e_id) ]
    in
    let fields =
      if e.e_ph = 'i' then fields @ [ ("s", Json.String "t") ] else fields
    in
    match e.e_args with
    | [] -> Json.Assoc fields
    | args ->
        Json.Assoc
          (fields
          @ [
              ( "args",
                Json.Assoc
                  (List.map (fun (k, v) -> (k, field_to_json v)) args) );
            ])

  let json () =
    locked (fun () ->
        let tids = Hashtbl.create 16 in
        Hashtbl.iter (fun tid _ -> Hashtbl.replace tids tid ()) last_ts;
        Hashtbl.iter (fun tid _ -> Hashtbl.replace tids tid ()) thread_names;
        let tid_list =
          Hashtbl.fold (fun tid () acc -> tid :: acc) tids []
          |> List.sort compare
        in
        let metas =
          meta_json ~tid:0 ~name:"process_name" ~value:"sdfalloc"
          :: List.map
               (fun tid ->
                 let value =
                   match Hashtbl.find_opt thread_names tid with
                   | Some n -> n
                   | None -> Printf.sprintf "domain %d" tid
                 in
                 meta_json ~tid ~name:"thread_name" ~value)
               tid_list
        in
        Json.List (metas @ List.rev_map ev_json !buf))

  let to_string () = Json.to_string (json ())
  let write_channel oc = output_string oc (to_string ())

  type summary = { events : int; tracks : int }

  let validate (j : Json.t) =
    match j with
    | Json.List items -> (
        let stacks : (int, string list) Hashtbl.t = Hashtbl.create 8 in
        let seen_ts : (int, float) Hashtbl.t = Hashtbl.create 8 in
        let tracks : (int, unit) Hashtbl.t = Hashtbl.create 8 in
        let count = ref 0 in
        let fail i msg = failwith (Printf.sprintf "record %d: %s" i msg) in
        try
          List.iteri
            (fun i item ->
              match item with
              | Json.Assoc kvs ->
                  let str k =
                    match List.assoc_opt k kvs with
                    | Some (Json.String s) -> Some s
                    | _ -> None
                  in
                  let int_ k =
                    match List.assoc_opt k kvs with
                    | Some (Json.Int v) -> Some v
                    | _ -> None
                  in
                  let num k =
                    match List.assoc_opt k kvs with
                    | Some (Json.Int v) -> Some (float_of_int v)
                    | Some (Json.Float f) -> Some f
                    | _ -> None
                  in
                  let ph =
                    match str "ph" with
                    | Some s when Stdlib.String.length s = 1 -> s.[0]
                    | Some s -> fail i (Printf.sprintf "bad ph %S" s)
                    | None -> fail i "missing ph"
                  in
                  if not (Stdlib.String.contains "BEXibeCM" ph) then
                    fail i (Printf.sprintf "unknown ph '%c'" ph);
                  let name =
                    match str "name" with
                    | Some s -> s
                    | None -> fail i "missing name"
                  in
                  if int_ "pid" = None then fail i "missing pid";
                  let tid =
                    match int_ "tid" with
                    | Some t -> t
                    | None -> fail i "missing tid"
                  in
                  let ts =
                    match num "ts" with
                    | Some t when Float.is_finite t && t >= 0. -> t
                    | Some _ -> fail i "ts not a finite non-negative number"
                    | None -> fail i "missing ts"
                  in
                  if ph <> 'M' then begin
                    incr count;
                    Hashtbl.replace tracks tid ();
                    (match Hashtbl.find_opt seen_ts tid with
                    | Some prev when ts < prev ->
                        fail i (Printf.sprintf "ts goes backwards on tid %d" tid)
                    | _ -> ());
                    Hashtbl.replace seen_ts tid ts;
                    match ph with
                    | 'B' ->
                        let st =
                          Option.value ~default:[]
                            (Hashtbl.find_opt stacks tid)
                        in
                        Hashtbl.replace stacks tid (name :: st)
                    | 'E' -> (
                        match Hashtbl.find_opt stacks tid with
                        | Some (top :: rest) ->
                            if top <> name then
                              fail i
                                (Printf.sprintf
                                   "E %S closes open span %S on tid %d" name
                                   top tid);
                            Hashtbl.replace stacks tid rest
                        | _ ->
                            fail i
                              (Printf.sprintf "E %S with no open span on tid %d"
                                 name tid))
                    | _ -> ()
                  end
              | _ -> fail i "not an object")
            items;
          Hashtbl.iter
            (fun tid st ->
              match st with
              | [] -> ()
              | top :: _ ->
                  failwith
                    (Printf.sprintf "unclosed span %S on tid %d" top tid))
            stacks;
          Ok { events = !count; tracks = Hashtbl.length tracks }
        with Failure msg -> Error msg)
    | _ -> Error "trace is not a JSON array"
end

module Span = struct
  (* One stack per domain: spans opened on a worker nest under that
     worker's own enclosing spans, never under a sibling's. *)
  let stack_key = Domain.DLS.new_key (fun () -> ref [])
  let stack () = Domain.DLS.get stack_key
  let current () = List.rev !(stack ())

  let with_ name f =
    if not (enabled ()) then f ()
    else begin
      let tracing = Trace.recording () in
      let stack = stack () in
      stack := name :: !stack;
      let path = String.concat "/" (List.rev !stack) in
      if tracing then Trace.span_begin name;
      let t0 = Timer.now () in
      Fun.protect
        ~finally:(fun () ->
          (match !stack with _ :: tl -> stack := tl | [] -> ());
          let dt = Timer.now () -. t0 in
          Timer.record_always path dt;
          if tracing then Trace.span_end name;
          notify (Span_end { path; seconds = dt }))
        f
    end
end

module Event = struct
  type nonrec field = field =
    | String of string
    | Int of int
    | Float of float
    | Bool of bool

  let emit kind fields =
    if enabled () then begin
      locked (fun () ->
          if !events_stored >= !max_events then
            Hashtbl.replace events_dropped kind
              (1
              + Option.value ~default:0 (Hashtbl.find_opt events_dropped kind)
              )
          else begin
            events := { ev_kind = kind; ev_fields = fields } :: !events;
            incr events_stored
          end);
      Trace.instant ~args:fields kind;
      notify (Event_record { kind; fields })
    end

  let count kind =
    locked (fun () ->
        List.fold_left
          (fun n e -> if e.ev_kind = kind then n + 1 else n)
          0 !events)

  let dropped kind =
    locked (fun () ->
        Option.value ~default:0 (Hashtbl.find_opt events_dropped kind))

  let all () =
    locked (fun () -> List.rev_map (fun e -> (e.ev_kind, e.ev_fields)) !events)
end

module Heartbeat = struct
  type st = {
    mutable hb_valid : bool;
    mutable hb_time : float;
    mutable hb_states : int;
  }

  let key =
    Domain.DLS.new_key (fun () ->
        { hb_valid = false; hb_time = 0.; hb_states = 0 })

  let hist = Histogram.make "engine.states_per_sec"

  let probe ~states =
    if enabled () then begin
      let st = Domain.DLS.get key in
      let now = Unix.gettimeofday () in
      if st.hb_valid && states >= st.hb_states then begin
        if now > st.hb_time then begin
          let rate =
            float_of_int (states - st.hb_states) /. (now -. st.hb_time)
          in
          Histogram.record hist rate;
          Trace.counter "engine.states_per_sec" rate;
          st.hb_time <- now;
          st.hb_states <- states
        end
        (* else: the clock has not advanced measurably; keep accumulating
           against the same reference point. *)
      end
      else begin
        (* First probe on this domain, or the state count restarted: a new
           exploration began — re-base without recording a sample. *)
        st.hb_valid <- true;
        st.hb_time <- now;
        st.hb_states <- states
      end
    end
end

let snapshot_json () =
  locked @@ fun () ->
  let timer_json t =
    Json.Assoc
      [
        ("count", Json.Int t.t_count);
        ("total_s", Json.Float t.t_total);
        ( "mean_s",
          Json.Float
            (if t.t_count = 0 then 0. else t.t_total /. float_of_int t.t_count)
        );
        ("stddev_s", Json.Float (Timer.stddev t));
        ("min_s", Json.Float t.t_min);
        ("max_s", Json.Float t.t_max);
      ]
  in
  let histogram_json h =
    Json.Assoc
      [
        ("count", Json.Int h.h_count);
        ("p50", Json.Float (Histogram.quantile_locked h 0.50));
        ("p90", Json.Float (Histogram.quantile_locked h 0.90));
        ("p99", Json.Float (Histogram.quantile_locked h 0.99));
        ("max", Json.Float h.h_max);
      ]
  in
  let event_json e =
    Json.Assoc
      (("kind", Json.String e.ev_kind)
      :: List.map (fun (k, v) -> (k, field_to_json v)) e.ev_fields)
  in
  Json.Assoc
    [
      ("schema_version", Json.Int 2);
      ("counters", Json.Assoc (sorted_tbl counters (fun r -> Json.Int !r)));
      ("gauges", Json.Assoc (sorted_tbl gauges (fun v -> Json.Float v)));
      ("timers", Json.Assoc (sorted_tbl timers timer_json));
      ("histograms", Json.Assoc (sorted_tbl histograms histogram_json));
      ("events", Json.List (List.rev_map event_json !events));
      ( "events_dropped",
        Json.Assoc (sorted_tbl events_dropped (fun n -> Json.Int n)) );
    ]

let json_string () = Json.to_string (snapshot_json ())
let write_channel oc = output_string oc (json_string ())

module Sink = struct
  type nonrec output = output =
    | Span_end of { path : string; seconds : float }
    | Event_record of { kind : string; fields : (string * field) list }

  let register f = sinks := f :: !sinks
  let clear () = sinks := []

  let pp_field ppf (k, v) =
    match v with
    | String s -> Format.fprintf ppf "%s=%s" k s
    | Int i -> Format.fprintf ppf "%s=%d" k i
    | Float f -> Format.fprintf ppf "%s=%g" k f
    | Bool b -> Format.fprintf ppf "%s=%b" k b

  let logs () =
    register (function
      | Span_end { path; seconds } ->
          Log.debug (fun m -> m "span %s %.6fs" path seconds)
      | Event_record { kind; fields } ->
          Log.debug (fun m ->
              m "event %s [%a]" kind
                (Format.pp_print_list
                   ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ' ')
                   pp_field)
                fields))
end

module Report = struct
  let pp ppf () =
    locked @@ fun () ->
    Format.fprintf ppf "@[<v>";
    List.iter
      (fun (k, v) -> Format.fprintf ppf "counter %-42s %d@," k v)
      (sorted_tbl counters (fun r -> !r));
    List.iter
      (fun (k, v) -> Format.fprintf ppf "gauge   %-42s %g@," k v)
      (sorted_tbl gauges Fun.id);
    List.iter
      (fun (k, t) ->
        Format.fprintf ppf "timer   %-42s n=%d total=%.6fs@," k t.t_count
          t.t_total)
      (sorted_tbl timers Fun.id);
    List.iter
      (fun (k, h) ->
        Format.fprintf ppf "hist    %-42s n=%d p50=%g p99=%g max=%g@," k
          h.h_count
          (Histogram.quantile_locked h 0.50)
          (Histogram.quantile_locked h 0.99)
          h.h_max)
      (sorted_tbl histograms Fun.id);
    Format.fprintf ppf "@]"

  let log () = Log.info (fun m -> m "@[<v>telemetry:@,%a@]" pp ())
end
