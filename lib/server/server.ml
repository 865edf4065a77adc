(* Allocation-as-a-service. The daemon composes the subsystems the
   earlier PRs built for exactly this deployment: per-request [Budget]s
   derived from QoS tiers, the shared [Analysis.Memo] cache kept warm
   across requests, [Obs] counters/histograms/traces for the operator
   dashboard, and the batch JSONL journal as the durable request log.

   Layering: [Handler] is socket-free (a wire line in, a wire line out)
   so the unit tests drive admission, tier budgets and error isolation
   directly; [Daemon] adds the listeners, per-connection reader threads
   and the drain-aware accept loop. *)

module Json = Obs.Json
module Rat = Sdf.Rat
module Sdfg = Sdf.Sdfg

module Tier = struct
  type t = Interactive | Standard | Batch

  let all = [ Interactive; Standard; Batch ]

  let label = function
    | Interactive -> "interactive"
    | Standard -> "standard"
    | Batch -> "batch"

  let of_string = function
    | "interactive" -> Ok Interactive
    | "standard" -> Ok Standard
    | "batch" -> Ok Batch
    | s -> Error (Printf.sprintf "unknown tier %S" s)

  (* The wall deadline starts when the request starts executing (after
     admission), not when it was read off the socket. *)
  let budget ?cancel = function
    | Interactive -> Budget.make ~wall_s:1.0 ~max_states:200_000 ?cancel ()
    | Standard -> Budget.make ~wall_s:10.0 ~max_states:2_000_000 ?cancel ()
    | Batch -> Budget.make ?cancel ()
end

module Journal = struct
  let allocated ~case thr =
    Json.Assoc
      [
        ("case", Json.String case);
        ("status", Json.String "allocated");
        ("throughput", Json.String (Rat.to_string thr));
      ]

  let partial ~case reason =
    Json.Assoc
      [
        ("case", Json.String case);
        ("status", Json.String "partial");
        ("reason", Json.String (Budget.reason_label reason));
      ]

  let failed ~case label =
    Json.Assoc
      [
        ("case", Json.String case);
        ("status", Json.String "failed");
        ("reason", Json.String label);
      ]

  let error ~case msg =
    Json.Assoc
      [
        ("case", Json.String case);
        ("status", Json.String "error");
        ("message", Json.String msg);
      ]

  let failure_label = function
    | Core.Strategy.Bind_failed _ -> "bind_failed"
    | Core.Strategy.Schedule_failed -> "schedule_failed"
    | Core.Strategy.Slice_failed _ -> "slice_failed"
    | Core.Strategy.Budget_exhausted _ -> "budget_exhausted"

  let of_flow_result ~case (r : Core.Flow.result) =
    match r.Core.Flow.allocation with
    | Some alloc -> allocated ~case alloc.Core.Strategy.throughput
    | None -> (
        match List.rev r.Core.Flow.attempts with
        | {
            Core.Flow.outcome =
              Error (Core.Strategy.Budget_exhausted reason);
            _;
          }
          :: _ ->
            partial ~case reason
        | { Core.Flow.outcome = Error f; _ } :: _ ->
            failed ~case (failure_label f)
        | _ -> failed ~case "no_attempt")

  let to_line = Json.to_compact_string
end

module Admission = struct
  (* Two occupancy classes: [normal] (standard/batch) may only use the
     general slots (capacity - reserved); [privileged] (interactive) may
     use the whole window, so [reserved] slots are always available to it
     no matter how much batch traffic is in flight. *)
  type t = {
    mutex : Mutex.t;
    idle : Condition.t;
    capacity : int;
    reserved : int;
    mutable normal : int;
    mutable privileged : int;
    mutable control : int;
    mutable draining : bool;
    c_reserved_admits : Obs.Counter.t;
    c_normal_blocked : Obs.Counter.t;
  }

  type decision = Admitted | Overloaded | Draining

  let create ?(reserved = 0) ~capacity () =
    let capacity = max 1 capacity in
    let reserved = min (max 0 reserved) (capacity - 1) in
    {
      mutex = Mutex.create ();
      idle = Condition.create ();
      capacity;
      reserved;
      normal = 0;
      privileged = 0;
      control = 0;
      draining = false;
      c_reserved_admits = Obs.Counter.make "server.preempt.reserved_admits";
      c_normal_blocked = Obs.Counter.make "server.preempt.normal_blocked";
    }

  let capacity t = t.capacity
  let reserved t = t.reserved

  let try_admit ?(privileged = false) t =
    Mutex.lock t.mutex;
    let d =
      if t.draining then Draining
      else begin
        let total = t.normal + t.privileged in
        if privileged then
          if total >= t.capacity then Overloaded
          else begin
            (* The general pool was full: this admission went through on
               the strength of the reserve. *)
            if total >= t.capacity - t.reserved then
              Obs.Counter.incr t.c_reserved_admits;
            t.privileged <- t.privileged + 1;
            Admitted
          end
        else if t.normal >= t.capacity - t.reserved || total >= t.capacity
        then begin
          (* Slots were free but they are reserved for interactive. *)
          if total < t.capacity then Obs.Counter.incr t.c_normal_blocked;
          Overloaded
        end
        else begin
          t.normal <- t.normal + 1;
          Admitted
        end
      end
    in
    Mutex.unlock t.mutex;
    d

  let release ?(privileged = false) t =
    Mutex.lock t.mutex;
    if privileged then t.privileged <- t.privileged - 1
    else t.normal <- t.normal - 1;
    if t.normal + t.privileged = 0 && t.control = 0 then
      Condition.broadcast t.idle;
    Mutex.unlock t.mutex

  let enter_control t =
    Mutex.lock t.mutex;
    t.control <- t.control + 1;
    Mutex.unlock t.mutex

  let exit_control t =
    Mutex.lock t.mutex;
    t.control <- t.control - 1;
    if t.normal + t.privileged = 0 && t.control = 0 then
      Condition.broadcast t.idle;
    Mutex.unlock t.mutex

  let in_flight t =
    Mutex.lock t.mutex;
    let n = t.normal + t.privileged in
    Mutex.unlock t.mutex;
    n

  let normal_in_flight t =
    Mutex.lock t.mutex;
    let n = t.normal in
    Mutex.unlock t.mutex;
    n

  let privileged_in_flight t =
    Mutex.lock t.mutex;
    let n = t.privileged in
    Mutex.unlock t.mutex;
    n

  let begin_drain t =
    Mutex.lock t.mutex;
    t.draining <- true;
    Mutex.unlock t.mutex

  let draining t =
    Mutex.lock t.mutex;
    let d = t.draining in
    Mutex.unlock t.mutex;
    d

  let wait_idle t =
    Mutex.lock t.mutex;
    while t.normal + t.privileged > 0 || t.control > 0 do
      Condition.wait t.idle t.mutex
    done;
    Mutex.unlock t.mutex
end

(* The execution queue behind per-connection pipelining: reader threads
   submit admitted work here, a fixed pool of worker threads drains it.
   Two FIFO classes — privileged (interactive) jobs always dequeue before
   normal ones, and arrival order is preserved within each class. The
   admission window bounds the queue (a job is only submitted after
   [Admission.try_admit]), so the queue cannot grow past [capacity]. *)
module Workqueue = struct
  type t = {
    mutex : Mutex.t;
    nonempty : Condition.t;
    priv : (unit -> unit) Queue.t;
    norm : (unit -> unit) Queue.t;
    mutable closed : bool;
  }

  let create () =
    {
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      priv = Queue.create ();
      norm = Queue.create ();
      closed = false;
    }

  let length t =
    Mutex.lock t.mutex;
    let n = Queue.length t.priv + Queue.length t.norm in
    Mutex.unlock t.mutex;
    n

  let submit t ~privileged f =
    Mutex.lock t.mutex;
    if t.closed then begin
      (* Shutdown fallback: run in the caller so no admitted request is
         ever dropped on the floor. *)
      Mutex.unlock t.mutex;
      f ()
    end
    else begin
      Queue.push f (if privileged then t.priv else t.norm);
      Condition.signal t.nonempty;
      Mutex.unlock t.mutex
    end

  let pop_locked t =
    if not (Queue.is_empty t.priv) then Some (Queue.pop t.priv)
    else if not (Queue.is_empty t.norm) then Some (Queue.pop t.norm)
    else None

  let try_take t =
    Mutex.lock t.mutex;
    let r = pop_locked t in
    Mutex.unlock t.mutex;
    r

  let take t =
    Mutex.lock t.mutex;
    let rec go () =
      match pop_locked t with
      | Some _ as r -> r
      | None ->
          if t.closed then None
          else begin
            Condition.wait t.nonempty t.mutex;
            go ()
          end
    in
    let r = go () in
    Mutex.unlock t.mutex;
    r

  let close t =
    Mutex.lock t.mutex;
    t.closed <- true;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.mutex
end

module Request = struct
  type verb =
    | Ping
    | Status
    | Stats
    | Drain
    | Sleep of { ms : int }
    | Analyze of { file : string }
    | Flow of { file : string; platform : string }

  type t = { id : string option; verb : verb; tier : Tier.t }

  let verb_label = function
    | Ping -> "ping"
    | Status -> "status"
    | Stats -> "stats"
    | Drain -> "drain"
    | Sleep _ -> "sleep"
    | Analyze _ -> "analyze"
    | Flow _ -> "flow"

  let str_field j name =
    match Json.member name j with
    | Some (Json.String s) -> Ok (Some s)
    | Some _ -> Error (Printf.sprintf "field %S must be a string" name)
    | None -> Ok None

  let ( let* ) = Result.bind

  let of_json j =
    match j with
    | Json.Assoc _ ->
        let* id = str_field j "id" in
        let* verb_name =
          match str_field j "verb" with
          | Ok (Some v) -> Ok v
          | Ok None -> Error "missing field \"verb\""
          | Error _ as e -> e
        in
        let* tier =
          match str_field j "tier" with
          | Ok None -> Ok Tier.Standard
          | Ok (Some s) -> Tier.of_string s
          | Error _ as e -> e
        in
        let* file =
          match str_field j "file" with
          | Ok f -> Ok f
          | Error _ as e -> e
        in
        let require_file verb =
          match file with
          | Some f -> Ok f
          | None ->
              Error (Printf.sprintf "verb %S requires field \"file\"" verb)
        in
        let* verb =
          match verb_name with
          | "ping" -> Ok Ping
          | "status" -> Ok Status
          | "stats" -> Ok Stats
          | "drain" -> Ok Drain
          | "sleep" -> (
              match Json.member "ms" j with
              | Some (Json.Int ms) when ms >= 0 -> Ok (Sleep { ms })
              | _ -> Error "verb \"sleep\" requires integer field \"ms\"")
          | "analyze" ->
              let* f = require_file "analyze" in
              Ok (Analyze { file = f })
          | "flow" ->
              let* f = require_file "flow" in
              let* platform =
                match str_field j "platform" with
                | Ok None -> Ok "multimedia"
                | Ok (Some p) -> Ok p
                | Error _ as e -> e
              in
              Ok (Flow { file = f; platform })
          | v -> Error (Printf.sprintf "unknown verb %S" v)
        in
        Ok { id; verb; tier }
    | _ -> Error "request must be a JSON object"

  let of_line line =
    match Json.parse line with
    | Error msg -> Error (Printf.sprintf "parse error: %s" msg)
    | Ok j -> of_json j
end

let platform_of_string = function
  | "example" -> Ok (Appmodel.Models.example_platform ())
  | "multimedia" -> Ok (Appmodel.Models.multimedia_platform ())
  | "mesh3x3" -> Ok (Gen.Benchsets.architecture 0)
  | s ->
      Error
        (Printf.sprintf "unknown platform %S (try example, multimedia, mesh3x3)"
           s)

module Handler = struct
  type t = {
    root : string;
    journal : out_channel option;
    journal_mutex : Mutex.t;
    cancel : Budget.Cancel.t;
    admission : Admission.t;
    mutable served : int;
    mutable rejected : int;
    stats_mutex : Mutex.t;
    c_requests : Obs.Counter.t;
    c_malformed : Obs.Counter.t;
    h_request_s : Obs.Histogram.t;
    h_tier_s : (Tier.t * Obs.Histogram.t) list;
  }

  let create ?(root = ".") ?journal ?cancel ~admission () =
    (* Register the full counter grid up front so every verb/tier/outcome
       appears (at 0) in any --metrics document the daemon writes. *)
    List.iter
      (fun v -> ignore (Obs.Counter.make ("server.verb." ^ v)))
      [ "ping"; "status"; "stats"; "drain"; "sleep"; "analyze"; "flow" ];
    List.iter
      (fun t -> ignore (Obs.Counter.make ("server.tier." ^ Tier.label t)))
      Tier.all;
    List.iter
      (fun o -> ignore (Obs.Counter.make ("server.outcome." ^ o)))
      [ "ok"; "error"; "overloaded"; "draining"; "cancelled" ];
    ignore (Obs.Counter.make "server.connections");
    ignore (Obs.Counter.make "server.timeouts.idle");
    ignore (Obs.Counter.make "server.timeouts.read");
    {
      root;
      journal;
      journal_mutex = Mutex.create ();
      cancel = Option.value cancel ~default:(Budget.Cancel.create ());
      admission;
      served = 0;
      rejected = 0;
      stats_mutex = Mutex.create ();
      c_requests = Obs.Counter.make "server.requests";
      c_malformed = Obs.Counter.make "server.malformed";
      h_request_s = Obs.Histogram.make "server.request_s";
      h_tier_s =
        List.map
          (fun tier ->
            ( tier,
              Obs.Histogram.make ("server.request_s." ^ Tier.label tier) ))
          Tier.all;
    }

  let admission t = t.admission

  let requests_served t =
    Mutex.lock t.stats_mutex;
    let n = t.served in
    Mutex.unlock t.stats_mutex;
    n

  let requests_rejected t =
    Mutex.lock t.stats_mutex;
    let n = t.rejected in
    Mutex.unlock t.stats_mutex;
    n

  let bump_served t =
    Mutex.lock t.stats_mutex;
    t.served <- t.served + 1;
    Mutex.unlock t.stats_mutex

  let bump_rejected t =
    Mutex.lock t.stats_mutex;
    t.rejected <- t.rejected + 1;
    Mutex.unlock t.stats_mutex

  let journal_write t line =
    match t.journal with
    | None -> ()
    | Some oc ->
        Mutex.lock t.journal_mutex;
        output_string oc line;
        output_char oc '\n';
        flush oc;
        Mutex.unlock t.journal_mutex

  let id_json = function None -> Json.Null | Some id -> Json.String id

  let respond ?result ~id ~status ~verb () =
    Json.to_compact_string
      (Json.Assoc
         ([ ("id", id_json id); ("status", Json.String status) ]
         @ [ ("verb", Json.String verb) ]
         @ match result with None -> [] | Some r -> [ ("result", r) ]))

  let respond_error ~id msg =
    Json.to_compact_string
      (Json.Assoc
         [
           ("id", id_json id);
           ("status", Json.String "error");
           ("error", Json.String msg);
         ])

  let outcome name = Obs.Counter.add ("server.outcome." ^ name) 1

  (* Application loading, shared by analyze and flow. XML files carry
     Gamma and worst-case execution times; anything else parses as the
     text format of lib/sdf/textio. *)
  let load_doc t file =
    let path = Filename.concat t.root file in
    if Filename.check_suffix file ".xml" then begin
      let app = Appmodel.Sdf3_xml.read_app_file path in
      let g = app.Appmodel.Appgraph.graph in
      let taus =
        Array.init (Sdfg.num_actors g) (fun a ->
            Appmodel.Appgraph.max_exec_time app a)
      in
      ( app.Appmodel.Appgraph.app_name,
        g,
        Some taus,
        Some app )
    end
    else begin
      let doc = Sdf.Textio.parse_file path in
      (doc.Sdf.Textio.doc_name, doc.Sdf.Textio.graph, doc.Sdf.Textio.exec_times, None)
    end

  (* One analyze request: consistency, deadlock, then budgeted self-timed
     throughput. Deterministic fields only — counts of stored states are
     deterministic, wall-clock readings are not journaled. *)
  let run_analyze t ~budget file =
    let case = file in
    let name, g, exec_times, _ = load_doc t file in
    match Sdf.Repetition.compute g with
    | Sdf.Repetition.Inconsistent _ ->
        Json.Assoc
          [
            ("case", Json.String case);
            ("status", Json.String "inconsistent");
          ]
    | Sdf.Repetition.Disconnected ->
        Json.Assoc
          [
            ("case", Json.String case); ("status", Json.String "disconnected");
          ]
    | Sdf.Repetition.Consistent gamma -> (
        match Sdf.Deadlock.check g gamma with
        | Sdf.Deadlock.Deadlocked _ ->
            Json.Assoc
              [
                ("case", Json.String case);
                ("status", Json.String "deadlocked");
              ]
        | Sdf.Deadlock.Deadlock_free -> (
            match exec_times with
            | None ->
                Journal.error ~case "no execution times in file"
            | Some taus -> (
                match
                  Analysis.Selftimed.analyze_budgeted ~budget g taus
                with
                | Ok r ->
                    Json.Assoc
                      [
                        ("case", Json.String case);
                        ("status", Json.String "analyzed");
                        ("graph", Json.String name);
                        ("actors", Json.Int (Sdfg.num_actors g));
                        ("channels", Json.Int (Sdfg.num_channels g));
                        ("states", Json.Int r.Analysis.Selftimed.states);
                        ( "throughput",
                          Json.String
                            (Rat.to_string
                               r.Analysis.Selftimed.throughput.(0)) );
                      ]
                | Error p ->
                    Journal.partial ~case p.Analysis.Selftimed.reason)))

  let run_flow t ~budget ~file ~platform =
    let case = file in
    match platform_of_string platform with
    | Error msg -> Journal.error ~case msg
    | Ok arch ->
        let app = Appmodel.Sdf3_xml.read_app_file (Filename.concat t.root file) in
        let r = Core.Flow.allocate_with_retry ~budget app arch in
        Journal.of_flow_result ~case r

  (* Work-verb execution with per-request failure isolation: every
     exception — missing file, parse error, inconsistent graph, analysis
     bug — becomes this request's error result, never the daemon's
     crash. *)
  let run_work t (req : Request.t) =
    let exec () =
      let budget = Tier.budget ~cancel:t.cancel req.Request.tier in
      match req.Request.verb with
      | Request.Analyze { file } -> `Result (run_analyze t ~budget file)
      | Request.Flow { file; platform } ->
          let result = run_flow t ~budget ~file ~platform in
          journal_write t (Journal.to_line result);
          `Result result
      | Request.Sleep { ms } ->
          (* Hold the slot, but yield to the shared token so SIGTERM does
             not wait out a long diagnostic sleep. *)
          let deadline = Unix.gettimeofday () +. (float_of_int ms /. 1000.) in
          let rec napping () =
            if Budget.Cancel.triggered t.cancel then `Cancelled
            else begin
              let left = deadline -. Unix.gettimeofday () in
              if left <= 0. then
                `Result (Json.Assoc [ ("slept_ms", Json.Int ms) ])
              else begin
                Unix.sleepf (Float.min 0.01 left);
                napping ()
              end
            end
          in
          napping ()
      | Request.Ping | Request.Status | Request.Stats | Request.Drain ->
          assert false
    in
    let case_of_verb () =
      match req.Request.verb with
      | Request.Analyze { file } | Request.Flow { file; _ } -> Some file
      | _ -> None
    in
    try exec () with
    | e ->
        let msg =
          match e with
          | Appmodel.Sdf3_xml.Error m -> m
          | Sdf.Xml.Parse_error { position; message } ->
              Printf.sprintf "offset %d: %s" position message
          | Sdf.Textio.Parse_error { line; message } ->
              Printf.sprintf "line %d: %s" line message
          | e -> Printexc.to_string e
        in
        (match (case_of_verb (), req.Request.verb) with
        | Some case, Request.Flow _ ->
            journal_write t (Journal.to_line (Journal.error ~case msg))
        | _ -> ());
        `Error msg

  let status_result t =
    Json.Assoc
      [
        ("in_flight", Json.Int (Admission.in_flight t.admission));
        ("capacity", Json.Int (Admission.capacity t.admission));
        ("reserved", Json.Int (Admission.reserved t.admission));
        ("draining", Json.Bool (Admission.draining t.admission));
        ("served", Json.Int (requests_served t));
        ("rejected", Json.Int (requests_rejected t));
      ]

  (* Wire export of the telemetry registry: every counter and histogram
     snapshot, so a load harness can read [server.preempt.*] and the
     per-tier latency distributions without a metrics file. *)
  let stats_result () =
    let histo (s : Obs.Histogram.snapshot) =
      Json.Assoc
        [
          ("count", Json.Int s.Obs.Histogram.count);
          ("p50", Json.Float s.Obs.Histogram.p50);
          ("p90", Json.Float s.Obs.Histogram.p90);
          ("p99", Json.Float s.Obs.Histogram.p99);
          ("min", Json.Float s.Obs.Histogram.min);
          ("max", Json.Float s.Obs.Histogram.max);
        ]
    in
    Json.Assoc
      [
        ( "counters",
          Json.Assoc
            (List.map
               (fun (k, v) -> (k, Json.Int v))
               (Obs.counters_snapshot ())) );
        ( "histograms",
          Json.Assoc
            (List.map (fun (k, s) -> (k, histo s)) (Obs.Histogram.all ())) );
      ]

  let tier_privileged = function
    | Tier.Interactive -> true
    | Tier.Standard | Tier.Batch -> false

  let tier_histogram t tier = List.assq tier t.h_tier_s

  let rejection ~id ~status ~error =
    Json.to_compact_string
      (Json.Assoc
         [
           ("id", id_json id);
           ("status", Json.String status);
           ("error", Json.String error);
         ])

  (* The daemon-facing entry point. Control verbs (ping/status/stats/
     drain), parse errors and admission rejections are answered inline
     via [write] on the calling (reader) thread; admitted work verbs are
     handed to [submit] as a self-contained job that executes the work
     and writes its own response — the daemon routes jobs to the worker
     pool so one connection can have many requests in flight
     (pipelining). [privileged] on submit mirrors the admission class so
     the queue can let interactive work jump ahead of batch. The job
     releases its admission slot once the work is done and before the
     response write, so a client that has read its reply knows the slot
     is free again (the load tester's overload-window witness relies on
     this). The worker queue stays bounded by the admission capacity: a
     job leaves the queue before it gives its slot back. *)
  let dispatch t ~write ~submit line =
    Obs.Counter.incr t.c_requests;
    let t0 = Unix.gettimeofday () in
    match Request.of_line line with
    | Error msg ->
        Obs.Counter.incr t.c_malformed;
        outcome "error";
        write (respond_error ~id:None msg)
    | Ok req -> (
        let id = req.Request.id in
        let tier = req.Request.tier in
        let verb = Request.verb_label req.Request.verb in
        Obs.Counter.add ("server.verb." ^ verb) 1;
        Obs.Counter.add ("server.tier." ^ Tier.label tier) 1;
        match req.Request.verb with
        | Request.Ping ->
            outcome "ok";
            write (respond ~id ~status:"ok" ~verb ())
        | Request.Status ->
            outcome "ok";
            write (respond ~id ~status:"ok" ~verb ~result:(status_result t) ())
        | Request.Stats ->
            outcome "ok";
            write (respond ~id ~status:"ok" ~verb ~result:(stats_result ()) ())
        | Request.Drain ->
            Admission.begin_drain t.admission;
            outcome "ok";
            write (respond ~id ~status:"ok" ~verb ())
        | Request.Sleep _ | Request.Analyze _ | Request.Flow _ -> (
            let privileged = tier_privileged tier in
            match Admission.try_admit ~privileged t.admission with
            | Admission.Overloaded ->
                bump_rejected t;
                outcome "overloaded";
                write (rejection ~id ~status:"overloaded" ~error:"server at capacity")
            | Admission.Draining ->
                bump_rejected t;
                outcome "draining";
                write (rejection ~id ~status:"draining" ~error:"server is draining")
            | Admission.Admitted ->
                Obs.Gauge.set_int "server.queue_depth"
                  (Admission.in_flight t.admission);
                submit ~privileged (fun () ->
                    let response =
                      Fun.protect
                        ~finally:(fun () ->
                          Admission.release ~privileged t.admission;
                          Obs.Gauge.set_int "server.queue_depth"
                            (Admission.in_flight t.admission))
                        (fun () ->
                          match run_work t req with
                          | `Result r ->
                              bump_served t;
                              outcome "ok";
                              respond ~id ~status:"ok" ~verb ~result:r ()
                          | `Cancelled ->
                              bump_served t;
                              outcome "cancelled";
                              respond ~id ~status:"cancelled" ~verb ()
                          | `Error msg ->
                              bump_served t;
                              outcome "error";
                              respond_error ~id msg)
                    in
                    let dt = Unix.gettimeofday () -. t0 in
                    Obs.Histogram.record t.h_request_s dt;
                    Obs.Histogram.record (tier_histogram t tier) dt;
                    write response)))

  (* Synchronous single-line entry point (unit tests, one-shot client
     tooling): work runs inline on the calling thread and the response
     line is returned. *)
  let handle t line =
    let out = ref (respond_error ~id:None "no response") in
    dispatch t
      ~write:(fun s -> out := s)
      ~submit:(fun ~privileged:_ job -> job ())
      line;
    !out
end

module Daemon = struct
  type config = {
    socket_path : string;
    tcp_port : int option;
    read_timeout_s : float;
    idle_timeout_s : float;
    max_line_bytes : int;
    workers : int;
  }

  let default_config ~socket_path =
    {
      socket_path;
      tcp_port = None;
      read_timeout_s = 30.;
      idle_timeout_s = 300.;
      max_line_bytes = 1 lsl 20;
      workers = 0;
    }

  let write_all fd s =
    let b = Bytes.of_string s in
    let n = Bytes.length b in
    let off = ref 0 in
    while !off < n do
      match Unix.write fd b !off (n - !off) with
      | written -> off := !off + written
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done

  (* Per-connection write-side state. All response writes — inline
     control answers from the reader thread and work results from worker
     threads — serialize on [wmutex], so pipelined completions never
     interleave bytes on the wire. [pending] counts admitted jobs whose
     response has not been written yet; the reader only closes the fd
     once it reaches zero, and since a job's pending decrement happens
     after its response write (under the same mutex), the close decision
     can never race a write on a stale fd. *)
  type conn = {
    fd : Unix.file_descr;
    wmutex : Mutex.t;
    wcond : Condition.t;
    mutable pending : int;
    mutable closed : bool;
  }

  (* One reader thread per connection: assemble newline-delimited
     requests, dispatch each (control verbs answered inline, work verbs
     queued to the worker pool), close on end-of-stream, timeout,
     oversized line or daemon shutdown. Everything a peer can do wrong
     ends this connection, not the daemon. *)
  let connection cfg handler queue ~shutdown fd =
    let adm = Handler.admission handler in
    let conn =
      {
        fd;
        wmutex = Mutex.create ();
        wcond = Condition.create ();
        pending = 0;
        closed = false;
      }
    in
    let write_line s =
      Mutex.lock conn.wmutex;
      (if not conn.closed then
         try write_all conn.fd (s ^ "\n") with Unix.Unix_error _ -> ());
      Mutex.unlock conn.wmutex
    in
    let submit ~privileged job =
      Mutex.lock conn.wmutex;
      conn.pending <- conn.pending + 1;
      Mutex.unlock conn.wmutex;
      Workqueue.submit queue ~privileged (fun () ->
          Fun.protect
            ~finally:(fun () ->
              Mutex.lock conn.wmutex;
              conn.pending <- conn.pending - 1;
              Condition.broadcast conn.wcond;
              Mutex.unlock conn.wmutex)
            job)
    in
    let dispatch line =
      Admission.enter_control adm;
      Fun.protect
        ~finally:(fun () -> Admission.exit_control adm)
        (fun () -> Handler.dispatch handler ~write:write_line ~submit line)
    in
    let buf = Buffer.create 1024 in
    let chunk = Bytes.create 4096 in
    let rec serve_lines () =
      let s = Buffer.contents buf in
      match String.index_opt s '\n' with
      | Some i ->
          let line = String.sub s 0 i in
          Buffer.clear buf;
          Buffer.add_string buf
            (String.sub s (i + 1) (String.length s - i - 1));
          dispatch line;
          serve_lines ()
      | None ->
          if Buffer.length buf > cfg.max_line_bytes then begin
            write_line (Handler.respond_error ~id:None "request line too long");
            `Close
          end
          else `More
    in
    (* Select in short slices so the reader notices the daemon's
       shutdown signal within ~0.2 s. During a drain it keeps reading
       (new work is answered "draining"); once the admission window has
       emptied and the daemon flips [shutdown], it stops reading, lets
       queued responses flush (pending drains to zero) and closes — no
       request that was already admitted loses its response. *)
    let rec read_loop ~deadline ~kind =
      if Atomic.get shutdown then ()
      else begin
        let now = Unix.gettimeofday () in
        if now >= deadline then Obs.Counter.add ("server.timeouts." ^ kind) 1
        else begin
          let slice = Float.min 0.2 (deadline -. now) in
          match Unix.select [ fd ] [] [] slice with
          | [], _, _ -> read_loop ~deadline ~kind
          | _ -> (
              match Unix.read fd chunk 0 (Bytes.length chunk) with
              | 0 -> ()
              | n -> (
                  Buffer.add_subbytes buf chunk 0 n;
                  match serve_lines () with
                  | `More ->
                      let kind, timeout =
                        if Buffer.length buf = 0 then
                          ("idle", cfg.idle_timeout_s)
                        else ("read", cfg.read_timeout_s)
                      in
                      read_loop
                        ~deadline:(Unix.gettimeofday () +. timeout)
                        ~kind
                  | `Close -> ())
              | exception Unix.Unix_error (Unix.EINTR, _, _) ->
                  read_loop ~deadline ~kind)
          | exception Unix.Unix_error (Unix.EINTR, _, _) ->
              read_loop ~deadline ~kind
        end
      end
    in
    (try
       read_loop
         ~deadline:(Unix.gettimeofday () +. cfg.idle_timeout_s)
         ~kind:"idle"
     with _ -> ());
    (* Flush: wait for every admitted-but-unanswered request on this
       connection before closing the stream. *)
    Mutex.lock conn.wmutex;
    while conn.pending > 0 do
      Condition.wait conn.wcond conn.wmutex
    done;
    conn.closed <- true;
    Mutex.unlock conn.wmutex;
    try Unix.close fd with Unix.Unix_error _ -> ()

  let unix_listener path =
    if Sys.file_exists path then Sys.remove path;
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    fd

  let tcp_listener port =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen fd 64;
    fd

  let run ?(external_stop = fun () -> false) ?(on_ready = fun () -> ())
      cfg handler ~cancel =
    (* A peer closing mid-response must not kill the process. *)
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ());
    let adm = Handler.admission handler in
    let queue = Workqueue.create () in
    let nworkers =
      if cfg.workers > 0 then cfg.workers else Admission.capacity adm
    in
    let workers =
      List.init nworkers (fun _ ->
          Thread.create
            (fun () ->
              let rec loop () =
                match Workqueue.take queue with
                | Some job ->
                    (try job () with _ -> ());
                    loop ()
                | None -> ()
              in
              loop ())
            ())
    in
    let live = Atomic.make 0 in
    let shutdown = Atomic.make false in
    let listeners =
      unix_listener cfg.socket_path
      :: (match cfg.tcp_port with
         | None -> []
         | Some port -> [ tcp_listener port ])
    in
    on_ready ();
    let stopping = ref false in
    while not !stopping do
      (match Unix.select listeners [] [] 0.1 with
      | ready, _, _ ->
          List.iter
            (fun lfd ->
              match Unix.accept lfd with
              | fd, _ ->
                  Obs.Counter.add "server.connections" 1;
                  Atomic.incr live;
                  ignore
                    (Thread.create
                       (fun () ->
                         Fun.protect
                           ~finally:(fun () -> Atomic.decr live)
                           (fun () ->
                             connection cfg handler queue ~shutdown fd))
                       ())
              | exception Unix.Unix_error (_, _, _) -> ())
            ready
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      if external_stop () then begin
        (* SIGTERM: drain, and additionally cancel in-flight budgeted
           work — it stops at its next budget probe with a sound partial
           outcome instead of running out its tier allowance. *)
        Admission.begin_drain adm;
        Budget.Cancel.trigger cancel
      end;
      if Admission.draining adm && Admission.in_flight adm = 0 then
        stopping := true
    done;
    (* wait_idle returning means every admitted request's work is done
       (control sections cover the inline answers). A job gives its slot
       back just before writing its response; that write is still
       counted in its connection's [pending], which every reader flushes
       before it closes, so no admitted request loses its answer. *)
    Admission.wait_idle adm;
    (* Readers notice the shutdown flag within a poll slice, flush and
       close their connections; give them a bounded moment so every
       client sees a clean end-of-stream before the listeners go away. *)
    Atomic.set shutdown true;
    let patience = Unix.gettimeofday () +. 5.0 in
    while Atomic.get live > 0 && Unix.gettimeofday () < patience do
      Unix.sleepf 0.01
    done;
    Workqueue.close queue;
    List.iter Thread.join workers;
    List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) listeners;
    (try Sys.remove cfg.socket_path with Sys_error _ -> ());
    0
end
