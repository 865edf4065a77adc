(* The serve probe of the traced batch run: sdf3_serve with its default
   admission (4 slots, 1 reserved), driven open-loop by one
   single-threaded generator over 2 pipelined Unix-socket connections.
   Requests are due at a fixed rate; 25% are interactive [analyze], 75%
   batch-tier [flow] on mesh3x3, a third of those naming a case the
   daemon has not seen and two thirds repeating one, so its memo is hit
   across requests. Latency runs from each request's due time; a refused
   or unanswered request counts as missing every latency limit. *)

module Json = Obs.Json

(* Below the knee: at 20 req/s the few 150-400 ms analyses that hit the
   interactive 200k-state cap hold the one domain long enough for flows
   to fill the three normal slots, and the daemon refuses some. *)
let rate = 10.

(* The latency charged to a refused or unanswered request. *)
let miss_s = 30.

type kind = Analyze | Flow

type req = { k : int; kind : kind; case : string; line : string; due : float }

let id k = Printf.sprintf "r%d" k

let wire k kind case =
  match kind with
  | Analyze ->
      Printf.sprintf {|{"id":"%s","verb":"analyze","file":"%s","tier":"interactive"}|} (id k)
        case
  | Flow ->
      Printf.sprintf
        {|{"id":"%s","verb":"flow","file":"%s","platform":"mesh3x3","tier":"batch"}|}
        (id k) case

(* The send schedule: a pure function of seed, round and rate. Every
   corpus case is requested four times — one [analyze] and three [flow]s,
   the first of which the daemon has not seen — in an order the seed
   draws; the requests are due at [rate], evenly spaced. *)
let schedule ~seed ~round ~cases =
  let g = Inputs.rng ~seed ~stream:(5150 + round) in
  let items =
    Inputs.shuffle g
      (List.concat_map (fun c -> [ (Analyze, c); (Flow, c); (Flow, c); (Flow, c) ])
         (Array.to_list cases))
  in
  List.mapi
    (fun k (kind, case) -> { k; kind; case; line = wire k kind case; due = float_of_int k /. rate })
    items

(* ------------------------------------------------------------------ *)
(* The daemon                                                         *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; out : Unix.file_descr; boot_s : float; socket : string }

let read_line_within fd ~timeout =
  let buf = Buffer.create 128 and b = Bytes.create 1 in
  let deadline = Util.now () +. timeout in
  let rec go () =
    let left = deadline -. Util.now () in
    if left <= 0. then None
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> go ()
      | _ -> (
          match Unix.read fd b 0 1 with
          | 0 -> None
          | _ ->
              if Bytes.get b 0 = '\n' then Some (Buffer.contents buf)
              else begin
                Buffer.add_char buf (Bytes.get b 0);
                go ()
              end)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* Daemons not yet reaped; killed if the run stops early. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let spawn (t : Ctx.t) ~root ~socket ~journal ~log ~telemetry =
  (try Sys.remove socket with Sys_error _ -> ());
  let argv =
    [ t.Ctx.serve_bin; "--socket"; socket; "--root"; root ]
    @ (match journal with Some j -> [ "--journal"; j ] | None -> [])
    @ match telemetry with Some (m, tr) -> [ "--metrics"; m; "--trace"; tr ] | None -> []
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let t0 = Util.now () in
  let pid = Unix.create_process t.Ctx.serve_bin (Array.of_list argv) Unix.stdin wr err in
  live := pid :: !live;
  Unix.close wr;
  Unix.close err;
  match read_line_within rd ~timeout:30. with
  | Some l when String.starts_with ~prefix:"sdf3_serve: listening" l ->
      { pid; out = rd; boot_s = Util.now () -. t0; socket }
  | _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      Util.incorrect "serve: daemon did not start (see %s)" log

(* Wait for the daemon to exit on its own; it must exit 0 and remove its
   socket. *)
let reap d ~timeout =
  let deadline = Util.now () +. timeout in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ ->
        if Util.now () > deadline then begin
          Unix.close d.out;
          Util.incorrect "serve: daemon did not exit after drain"
        end
        else begin
          Unix.sleepf 0.01;
          wait ()
        end
    | _, st -> st
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let st = wait () in
  live := List.filter (( <> ) d.pid) !live;
  Unix.close d.out;
  if st <> Unix.WEXITED 0 then Util.incorrect "serve: daemon exited abnormally";
  if Sys.file_exists d.socket then Util.incorrect "serve: socket left behind after drain"

(* ------------------------------------------------------------------ *)
(* The generator                                                      *)
(* ------------------------------------------------------------------ *)

type response = { status : string; result : string; at : float }

type phase = {
  reqs : req array;
  t0 : float;
  sent_at : float array;
  responses : response option array;
  max_outstanding : int;
  stats : Json.t;  (** the daemon's [stats] result, before drain *)
  rss_mb : float;
  journal : string list;
  boot_s : float;
}

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  fd

let write_all fd s =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then
      match Unix.write fd b off (Bytes.length b - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let member_string k j =
  match Json.member k j with Some (Json.String s) -> s | _ -> ""

let run_phase (t : Ctx.t) ~root ~reqs ~telemetry ~tag =
  let socket = Filename.concat t.Ctx.workdir (tag ^ ".sock") in
  let journal = Filename.concat t.Ctx.workdir (tag ^ ".journal") in
  (try Sys.remove journal with Sys_error _ -> ());
  let log = Filename.concat t.Ctx.workdir (tag ^ ".log") in
  let d = spawn t ~root ~socket ~journal:(Some journal) ~log ~telemetry in
  let n = Array.length reqs in
  let fds = [| connect socket; connect socket |] in
  let bufs = [| Buffer.create 4096; Buffer.create 4096 |] in
  let sent_at = Array.make n 0. and responses = Array.make n None in
  let control = Hashtbl.create 4 in
  let answered = ref 0 and next = ref 0 and outstanding = ref 0 and max_out = ref 0 in
  let chunk = Bytes.create 65536 in
  let on_line line =
    let at = Util.now () in
    match Json.parse line with
    | Error _ -> Util.incorrect "serve: unparsable response %S" line
    | Ok j -> (
        let rid = member_string "id" j in
        let status = member_string "status" j in
        let result =
          match Json.member "result" j with Some r -> Json.to_compact_string r | None -> ""
        in
        let k =
          if String.length rid > 1 && rid.[0] = 'r' then
            int_of_string_opt (String.sub rid 1 (String.length rid - 1))
          else None
        in
        match k with
        | Some k when k >= 0 && k < n ->
            if responses.(k) <> None then Util.incorrect "serve: duplicate response for %s" rid;
            responses.(k) <- Some { status; result; at };
            decr outstanding;
            incr answered
        | _ -> Hashtbl.replace control rid j)
  in
  let pump timeout =
    match Unix.select (Array.to_list fds) [] [] timeout with
    | ready, _, _ ->
        List.iter
          (fun fd ->
            let i = if fd = fds.(0) then 0 else 1 in
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> ()
            | r ->
                Buffer.add_subbytes bufs.(i) chunk 0 r;
                let s = Buffer.contents bufs.(i) in
                let parts = String.split_on_char '\n' s in
                let rec feed = function
                  | [ rest ] ->
                      Buffer.clear bufs.(i);
                      Buffer.add_string bufs.(i) rest
                  | l :: more ->
                      on_line l;
                      feed more
                  | [] -> ()
                in
                feed parts
            | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ())
          ready
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let t0 = Util.now () +. 0.05 in
  let hard = t0 +. reqs.(n - 1).due +. miss_s in
  while (!next < n || !answered < n) && Util.now () < hard do
    let now = Util.now () in
    while !next < n && t0 +. reqs.(!next).due <= now do
      let r = reqs.(!next) in
      sent_at.(r.k) <- Util.now ();
      write_all fds.(r.k mod 2) (r.line ^ "\n");
      incr next;
      incr outstanding;
      max_out := max !max_out !outstanding
    done;
    let timeout =
      if !next < n then Float.max 0. (t0 +. reqs.(!next).due -. Util.now ()) else 0.05
    in
    pump timeout
  done;
  let await rid =
    let deadline = Util.now () +. 10. in
    while (not (Hashtbl.mem control rid)) && Util.now () < deadline do
      pump 0.05
    done;
    match Hashtbl.find_opt control rid with
    | Some j -> j
    | None -> Util.incorrect "serve: no reply to %s" rid
  in
  write_all fds.(0) ({|{"id":"stats","verb":"stats"}|} ^ "\n");
  let stats =
    match Json.member "result" (await "stats") with Some r -> r | None -> Json.Null
  in
  let rss_mb = Util.peak_rss_mb ~pid:d.pid () in
  write_all fds.(0) ({|{"id":"drain","verb":"drain"}|} ^ "\n");
  if member_string "status" (await "drain") <> "ok" then Util.incorrect "serve: drain refused";
  (* Read both connections to their end: the daemon closes them once
     every admitted request has been answered. *)
  let closed = [| false; false |] in
  let deadline = Util.now () +. 10. in
  while (not (closed.(0) && closed.(1))) && Util.now () < deadline do
    let live = List.filter (fun i -> not closed.(i)) [ 0; 1 ] in
    match Unix.select (List.map (fun i -> fds.(i)) live) [] [] 0.05 with
    | ready, _, _ ->
        List.iter
          (fun i ->
            if List.mem fds.(i) ready then
              match Unix.read fds.(i) chunk 0 (Bytes.length chunk) with
              | 0 -> closed.(i) <- true
              | r -> Buffer.add_subbytes bufs.(i) chunk 0 r
              | exception Unix.Unix_error _ -> closed.(i) <- true)
          live
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  Array.iter Unix.close fds;
  reap d ~timeout:10.;
  let journal = if Sys.file_exists journal then Util.read_lines journal else [] in
  {
    reqs;
    t0;
    sent_at;
    responses;
    max_outstanding = !max_out;
    stats;
    rss_mb;
    journal;
    boot_s = d.boot_s;
  }

(* ------------------------------------------------------------------ *)
(* Checks                                                             *)
(* ------------------------------------------------------------------ *)

(* Exactly one response per request; every ok result equal to an
   in-process, sequential run of the same request through the same
   handler; the journal holding exactly the ok flow results. *)
let check_phase ~reference p =
  Array.iteri
    (fun k r ->
      match r with
      | None -> Util.incorrect "serve: request %s unanswered" (id k)
      | Some { status = "ok"; result; _ } ->
          let req = p.reqs.(k) in
          let expected = Hashtbl.find reference (req.kind, req.case) in
          if result <> expected then
            Util.incorrect "serve: %s result %s, reference %s" (id k) result expected
      | Some _ -> ())
    p.responses;
  let ok_flows =
    List.filter_map
      (fun (r : req) ->
        match p.responses.(r.k) with
        | Some { status = "ok"; result; _ } when r.kind = Flow -> Some result
        | _ -> None)
      (Array.to_list p.reqs)
  in
  if List.sort compare ok_flows <> List.sort compare p.journal then
    Util.incorrect "serve: journal (%d lines) differs from the %d ok flow results"
      (List.length p.journal) (List.length ok_flows)

let print_statuses p =
  let tally = Hashtbl.create 4 in
  Array.iter
    (fun r ->
      let s = match r with Some r -> r.status | None -> "unanswered" in
      Hashtbl.replace tally s (1 + Option.value ~default:0 (Hashtbl.find_opt tally s)))
    p.responses;
  Printf.printf "serve: %d requests at %.0f req/s:%s\n" (Array.length p.reqs) rate
    (String.concat ""
       (List.map (fun (s, n) -> Printf.sprintf " %s=%d" s n)
          (List.sort compare (List.of_seq (Hashtbl.to_seq tally)))))

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)
(* ------------------------------------------------------------------ *)

let latency p k =
  match p.responses.(k) with
  | Some { status = "ok"; at; _ } -> at -. (p.t0 +. p.reqs.(k).due)
  | _ -> miss_s

(* Latencies of the given kinds, pooled over rounds, sorted. *)
let latencies ps kinds =
  Util.sorted
    (List.concat_map
       (fun p ->
         List.filter_map
           (fun (r : req) -> if List.mem r.kind kinds then Some (latency p r.k) else None)
           (Array.to_list p.reqs))
       ps)

let oks p = List.filter (fun k -> match p.responses.(k) with Some { status = "ok"; _ } -> true | _ -> false)
    (List.init (Array.length p.reqs) Fun.id)

let wall p =
  Array.fold_left
    (fun acc r -> match r with Some s -> Float.max acc (s.at -. p.t0) | None -> acc)
    0. p.responses

(* The client's view, over the untraced rounds [ps]. *)
let client ps =
  let n = List.fold_left (fun a p -> a + Array.length p.reqs) 0 ps in
  let n_ok = List.fold_left (fun a p -> a + List.length (oks p)) 0 ps in
  let w = Util.sum (List.map wall ps) in
  let ms = 1e3 in
  let p50 name a what =
    Metric.v name "ms" (Util.median a *. ms)
      ~base:(Printf.sprintf "%d %s" (Array.length a) what)
  in
  let tl name a what =
    let t = Util.tail a in
    Metric.v name "ms" (t.Util.value *. ms)
      ~base:(Printf.sprintf "p%.1f of %d %s, %d beyond" t.Util.pct t.Util.n what t.Util.beyond)
  in
  let inter = latencies ps [ Analyze ] and batch = latencies ps [ Flow ] in
  [
    Metric.v "serve.req_per_s" "1/s" (float_of_int n_ok /. w)
      ~base:(Printf.sprintf "%d responses in %.3fs at %.0f req/s offered" n_ok w rate);
    Metric.v "serve.ok_ratio" "ratio" (Util.ratio (float_of_int n_ok) (float_of_int n))
      ~base:(Printf.sprintf "%d ok / %d sent" n_ok n);
    p50 "serve.interactive_p50_ms" inter "analyze requests";
    tl "serve.interactive_tail_ms" inter "analyze requests";
    p50 "serve.batch_p50_ms" batch "flow requests";
    tl "serve.batch_tail_ms" batch "flow requests";
  ]

(* The daemon's view, from its [stats] reply and [--metrics] registry,
   for the traced round [q]; [ps] are the untraced rounds. *)
let server ~reg q ps =
  let stats = q.stats in
  let hist name = Option.value ~default:(0., 0., 0.) (Registry.histogram stats name) in
  let ic, ip50, _ = hist "server.request_s.interactive" in
  let bc, bp50, _ = hist "server.request_s.batch" in
  let _, allp50, _ = hist "server.request_s" in
  let requests = Registry.counter stats "server.requests" in
  let overloaded = Registry.counter stats "server.outcome.overloaded" in
  let all = latencies [ q ] [ Analyze; Flow ] in
  let flow_lat = Util.sum (Array.to_list (latencies [ q ] [ Flow ])) in
  let _, attempt_s = Registry.timer reg "flow.attempt" in
  let untraced = latencies ps [ Analyze; Flow ] in
  let lags =
    Array.to_list (Array.mapi (fun k s -> s -. (q.t0 +. q.reqs.(k).due)) q.sent_at)
  in
  [
    Metric.v "server.boot_ms" "ms"
      (Util.median (Util.sorted (List.map (fun p -> p.boot_s) (q :: ps))) *. 1e3)
      ~base:(Printf.sprintf "median of %d daemon exec-to-listening" (1 + List.length ps));
    Metric.v "server.peak_rss_mb" "MiB" (Util.median (Util.sorted (List.map (fun p -> p.rss_mb) ps)))
      ~base:"daemon VmHWM before drain, median of the untraced rounds";
    Metric.v "server.interactive_p50_ms" "ms" (ip50 *. 1e3)
      ~base:(Printf.sprintf "handler time, %.0f requests (stats verb)" ic);
    Metric.v "server.batch_p50_ms" "ms" (bp50 *. 1e3)
      ~base:(Printf.sprintf "handler time, %.0f requests (stats verb)" bc);
    Metric.v "server.wait_p50_ms" "ms" ((Util.median all -. allp50) *. 1e3)
      ~base:"client p50 minus handler p50, all work requests";
    Metric.v "server.overloaded_ratio" "ratio" (Util.ratio overloaded requests)
      ~base:(Printf.sprintf "%.0f / %.0f requests" overloaded requests);
    Metric.v "server.preempt.reserved_admits" "count"
      (Registry.counter stats "server.preempt.reserved_admits");
    Metric.v "server.preempt.normal_blocked" "count"
      (Registry.counter stats "server.preempt.normal_blocked");
    Metric.v "server.queue_depth_max" "count" (float_of_int q.max_outstanding)
      ~base:"most requests outstanding at the generator";
    Metric.v "server.overhead_ratio" "ratio"
      (Util.ratio (Util.median all) (Util.median untraced))
      ~base:"median client latency, traced / untraced daemons, same requests";
    Metric.v "server.unexplained_share" "ratio"
      (Util.ratio (flow_lat -. attempt_s) flow_lat)
      ~base:
        (Printf.sprintf "%.4fs of %.4fs flow latency outside flow.attempt spans"
           (flow_lat -. attempt_s) flow_lat);
  ]
  @ Layers.lag lags

(* ------------------------------------------------------------------ *)
(* The probe                                                          *)
(* ------------------------------------------------------------------ *)

(* The corpus prefix every round requests. *)
let corpus_cases = 12

(* Untraced rounds before the traced one. *)
let untraced_rounds = 2

(* sdf3_serve under open-loop load: [untraced_rounds] rounds, each with a
   fresh daemon (cold memo) and the same requests in a new order, then
   one round against a daemon with [--metrics]/[--trace]. Every response
   is checked against an in-process, sequential run of the same request
   through the same handler; every round must drain cleanly. *)
let probe (t : Ctx.t) =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let root = Filename.concat t.Ctx.workdir "corpus" in
  let cases = Array.of_list (Inputs.corpus ~count:corpus_cases ~dir:root) in
  let order r = Array.of_list (schedule ~seed:t.Ctx.seed ~round:r ~cases) in
  let ps =
    List.init untraced_rounds (fun r ->
        run_phase t ~root ~reqs:(order r) ~telemetry:None ~tag:"serve")
  in
  let m = Filename.concat t.Ctx.workdir "serve-traced.metrics.json" in
  let tr = Filename.concat t.Ctx.workdir "serve-traced.trace.json" in
  let q =
    run_phase t ~root ~reqs:(List.hd ps).reqs ~telemetry:(Some (m, tr)) ~tag:"serve-traced"
  in
  List.iter print_statuses (ps @ [ q ]);
  let handler =
    Server.Handler.create ~root ~admission:(Server.Admission.create ~capacity:1 ()) ()
  in
  let reference = Hashtbl.create 64 in
  Array.iter
    (fun (r : req) ->
      if not (Hashtbl.mem reference (r.kind, r.case)) then
        match Json.parse (Server.Handler.handle handler r.line) with
        | Ok j ->
            Hashtbl.replace reference (r.kind, r.case)
              (match Json.member "result" j with
              | Some x -> Json.to_compact_string x
              | None -> Util.incorrect "serve: reference has no result for %s" r.line)
        | Error e -> Util.incorrect "serve: reference reply: %s" e)
    (order 0);
  List.iter (check_phase ~reference) (ps @ [ q ]);
  (match Json.parse (Util.read_file tr) with
  | Ok j -> (
      match Obs.Trace.validate j with
      | Ok s -> Printf.printf "serve trace: %d events validated\n" s.Obs.Trace.events
      | Error e -> Util.incorrect "serve: daemon trace does not validate: %s" e)
  | Error e -> Util.incorrect "serve: daemon trace: %s" e);
  let failed =
    List.fold_left (fun a p -> a + Array.length p.reqs - List.length (oks p)) 0 (ps @ [ q ])
  in
  (client ps @ server ~reg:(Registry.of_file m) q ps, failed)
