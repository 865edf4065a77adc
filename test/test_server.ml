(* The allocation service: QoS tier -> budget mapping, the bounded
   admission window, wire-protocol parsing, the shared journal format and
   the socket-free request handler (error isolation, drain rejection,
   overload under a real concurrent sleeper). *)

module Tier = Server.Tier
module Admission = Server.Admission
module Request = Server.Request
module Journal = Server.Journal
module Handler = Server.Handler

let fresh f =
  Analysis.Memo.clear_all ();
  Fun.protect
    ~finally:(fun () ->
      Analysis.Memo.clear_all ();
      Obs.set_enabled false;
      Obs.reset ())
    f

(* -- tiers -- *)

let test_tier_names () =
  List.iter
    (fun t ->
      Alcotest.(check bool)
        "label roundtrips" true
        (Tier.of_string (Tier.label t) = Ok t))
    Tier.all;
  Alcotest.(check bool)
    "unknown tier rejected" true
    (Result.is_error (Tier.of_string "gold"))

let test_tier_budgets () =
  (* Interactive and standard carry a state cap; the caps order as the
     tiers do. Batch without a token is the infinite budget; with the
     shared token it still probes cancellation. *)
  let interactive = Tier.budget Tier.Interactive in
  let standard = Tier.budget Tier.Standard in
  Alcotest.(check bool)
    "interactive states-limited" true
    (Budget.states_limited interactive);
  Alcotest.(check bool)
    "standard states-limited" true
    (Budget.states_limited standard);
  Alcotest.(check bool)
    "interactive cap below standard cap" true
    (Budget.check interactive ~states:300_000 ~arena_bytes:0 = Some Budget.States);
  Alcotest.(check bool)
    "standard tolerates 300k states" true
    (Budget.check standard ~states:300_000 ~arena_bytes:0 = None);
  Alcotest.(check bool)
    "batch unbudgeted is infinite" true
    (Budget.is_infinite (Tier.budget Tier.Batch));
  let cancel = Budget.Cancel.create () in
  let batch = Tier.budget ~cancel Tier.Batch in
  Alcotest.(check bool)
    "batch with token is not infinite" false
    (Budget.is_infinite batch);
  Budget.Cancel.trigger cancel;
  Alcotest.(check bool)
    "batch observes the shared token" true
    (Budget.check batch ~states:0 ~arena_bytes:0 = Some Budget.Cancelled)

(* -- admission -- *)

let test_admission_window () =
  let a = Admission.create ~capacity:2 () in
  Alcotest.(check int) "capacity" 2 (Admission.capacity a);
  Alcotest.(check bool) "first admitted" true
    (Admission.try_admit a = Admission.Admitted);
  Alcotest.(check bool) "second admitted" true
    (Admission.try_admit a = Admission.Admitted);
  Alcotest.(check bool) "third overloaded" true
    (Admission.try_admit a = Admission.Overloaded);
  Alcotest.(check int) "two in flight" 2 (Admission.in_flight a);
  Admission.release a;
  Alcotest.(check bool) "slot freed" true
    (Admission.try_admit a = Admission.Admitted);
  Admission.release a;
  Admission.release a;
  Alcotest.(check int) "idle" 0 (Admission.in_flight a)

let test_admission_drain () =
  let a = Admission.create ~capacity:4 () in
  Alcotest.(check bool) "not draining" false (Admission.draining a);
  Admission.begin_drain a;
  Admission.begin_drain a;
  Alcotest.(check bool) "draining" true (Admission.draining a);
  Alcotest.(check bool) "work rejected while draining" true
    (Admission.try_admit a = Admission.Draining);
  (* Control sections stay available (status/drain replies during
     drain) and wait_idle returns once everything released. *)
  Admission.enter_control a;
  Alcotest.(check int) "control is not work" 0 (Admission.in_flight a);
  Admission.exit_control a;
  Admission.wait_idle a

let test_admission_capacity_clamp () =
  let a = Admission.create ~capacity:0 () in
  Alcotest.(check int) "clamped to 1" 1 (Admission.capacity a);
  (* The reserve always leaves at least one general slot. *)
  let b = Admission.create ~reserved:9 ~capacity:3 () in
  Alcotest.(check int) "reserved clamped" 2 (Admission.reserved b);
  let c = Admission.create ~reserved:(-2) ~capacity:1 () in
  Alcotest.(check int) "negative reserved clamped" 0 (Admission.reserved c)

let test_admission_reserved () =
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
  @@ fun () ->
  let a = Admission.create ~reserved:2 ~capacity:4 () in
  let value = Obs.Counter.value in
  (* Normal work fills the general pool (capacity - reserved = 2). *)
  Alcotest.(check bool) "normal 1" true (Admission.try_admit a = Admission.Admitted);
  Alcotest.(check bool) "normal 2" true (Admission.try_admit a = Admission.Admitted);
  Alcotest.(check bool) "normal blocked by reserve" true
    (Admission.try_admit a = Admission.Overloaded);
  Alcotest.(check int) "blocked while slots were free" 1
    (value "server.preempt.normal_blocked");
  (* Interactive rides the reserve all the way to capacity. *)
  Alcotest.(check bool) "privileged 1" true
    (Admission.try_admit ~privileged:true a = Admission.Admitted);
  Alcotest.(check bool) "privileged 2" true
    (Admission.try_admit ~privileged:true a = Admission.Admitted);
  Alcotest.(check int) "both admissions used the reserve" 2
    (value "server.preempt.reserved_admits");
  (* The window is genuinely full now: even privileged bounces, and a
     normal rejection no longer counts as "blocked by the reserve". *)
  Alcotest.(check bool) "privileged overloaded at capacity" true
    (Admission.try_admit ~privileged:true a = Admission.Overloaded);
  Alcotest.(check bool) "normal overloaded at capacity" true
    (Admission.try_admit a = Admission.Overloaded);
  Alcotest.(check int) "full-window rejection not counted" 1
    (value "server.preempt.normal_blocked");
  Alcotest.(check int) "normal occupancy" 2 (Admission.normal_in_flight a);
  Alcotest.(check int) "privileged occupancy" 2
    (Admission.privileged_in_flight a);
  (* Releasing a privileged slot reopens the reserve for privileged
     work only. *)
  Admission.release ~privileged:true a;
  Alcotest.(check bool) "reserve reopens for privileged" true
    (Admission.try_admit ~privileged:true a = Admission.Admitted);
  Admission.release ~privileged:true a;
  Admission.release ~privileged:true a;
  Admission.release a;
  Admission.release a;
  Alcotest.(check int) "idle" 0 (Admission.in_flight a);
  Admission.wait_idle a

(* Model-based property: replay an arbitrary admit/release sequence
   against pen-and-paper occupancy counts. The invariants under test:
   a privileged (interactive) request is admitted whenever the window
   is not completely full — in particular it is NEVER rejected while a
   normal (batch) request occupies a slot the reserve should have held
   back — and a normal request is admitted exactly while the general
   pool (capacity - reserved) has room. *)
let admission_model_prop (capacity, reserved, ops) =
  let a = Admission.create ~reserved ~capacity () in
  let capacity = Admission.capacity a in
  let reserved = Admission.reserved a in
  let norm = ref 0 and priv = ref 0 in
  List.for_all
    (fun op ->
      match op land 3 with
      | 0 | 1 ->
          let privileged = op land 1 = 1 in
          let d = Admission.try_admit ~privileged a in
          let expect =
            if privileged then
              if !norm + !priv < capacity then Admission.Admitted
              else Admission.Overloaded
            else if !norm < capacity - reserved && !norm + !priv < capacity
            then Admission.Admitted
            else Admission.Overloaded
          in
          if d = Admission.Admitted then
            if privileged then incr priv else incr norm;
          d = expect
          && Admission.normal_in_flight a = !norm
          && Admission.privileged_in_flight a = !priv
      | 2 ->
          if !norm > 0 then begin
            Admission.release a;
            decr norm
          end;
          true
      | _ ->
          if !priv > 0 then begin
            Admission.release ~privileged:true a;
            decr priv
          end;
          true)
    ops

(* -- workqueue -- *)

let test_workqueue_priority_fifo () =
  let q = Server.Workqueue.create () in
  let order = ref [] in
  let job tag () = order := tag :: !order in
  Server.Workqueue.submit q ~privileged:false (job "n1");
  Server.Workqueue.submit q ~privileged:false (job "n2");
  Server.Workqueue.submit q ~privileged:true (job "p1");
  Server.Workqueue.submit q ~privileged:false (job "n3");
  Server.Workqueue.submit q ~privileged:true (job "p2");
  Alcotest.(check int) "queued" 5 (Server.Workqueue.length q);
  let rec drain () =
    match Server.Workqueue.try_take q with
    | Some j ->
        j ();
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list string))
    "privileged first, FIFO within class"
    [ "p1"; "p2"; "n1"; "n2"; "n3" ]
    (List.rev !order)

let test_workqueue_close () =
  let q = Server.Workqueue.create () in
  let hit = ref false in
  Server.Workqueue.submit q ~privileged:false (fun () -> hit := true);
  Server.Workqueue.close q;
  (* Queued-before-close jobs still drain... *)
  (match Server.Workqueue.take q with
  | Some j -> j ()
  | None -> Alcotest.fail "expected the queued job");
  Alcotest.(check bool) "queued job ran" true !hit;
  (* ...then take signals worker exit... *)
  Alcotest.(check bool) "take after close" true
    (Server.Workqueue.take q = None);
  (* ...and a post-close submit runs inline rather than vanishing. *)
  let inline = ref false in
  Server.Workqueue.submit q ~privileged:true (fun () -> inline := true);
  Alcotest.(check bool) "post-close submit ran inline" true !inline

(* FIFO-within-class under an arbitrary submit sequence: draining the
   queue yields every privileged job (in submit order) before every
   normal job (in submit order). *)
let workqueue_fifo_prop classes =
  let q = Server.Workqueue.create () in
  let order = ref [] in
  List.iteri
    (fun i privileged ->
      Server.Workqueue.submit q ~privileged (fun () ->
          order := (privileged, i) :: !order))
    classes;
  let rec drain () =
    match Server.Workqueue.try_take q with
    | Some j ->
        j ();
        drain ()
    | None -> ()
  in
  drain ();
  let indexed = List.mapi (fun i c -> (c, i)) classes in
  let expect =
    List.filter (fun (c, _) -> c) indexed
    @ List.filter (fun (c, _) -> not c) indexed
  in
  List.rev !order = expect

(* -- protocol parsing -- *)

let ok_req line =
  match Request.of_line line with
  | Ok r -> r
  | Error e -> Alcotest.failf "unexpected parse error: %s" e

let err_req line =
  match Request.of_line line with
  | Ok _ -> Alcotest.failf "expected a parse error for %s" line
  | Error e -> e

let test_request_parsing () =
  let r =
    ok_req
      {|{"id":"r1","verb":"flow","file":"a.xml","platform":"mesh3x3","tier":"interactive"}|}
  in
  Alcotest.(check bool) "id echoed" true (r.Request.id = Some "r1");
  Alcotest.(check bool) "tier parsed" true (r.Request.tier = Tier.Interactive);
  (match r.Request.verb with
  | Request.Flow { file; platform } ->
      Alcotest.(check string) "file" "a.xml" file;
      Alcotest.(check string) "platform" "mesh3x3" platform
  | _ -> Alcotest.fail "expected flow verb");
  let d = ok_req {|{"verb":"flow","file":"a.xml"}|} in
  Alcotest.(check bool) "tier defaults to standard" true
    (d.Request.tier = Tier.Standard);
  (match d.Request.verb with
  | Request.Flow { platform; _ } ->
      Alcotest.(check string) "platform defaults" "multimedia" platform
  | _ -> Alcotest.fail "expected flow verb");
  (match (ok_req {|{"verb":"sleep","ms":50}|}).Request.verb with
  | Request.Sleep { ms } -> Alcotest.(check int) "sleep ms" 50 ms
  | _ -> Alcotest.fail "expected sleep verb");
  ignore (err_req "not json");
  ignore (err_req {|["an","array"]|});
  ignore (err_req {|{"id":"x"}|});
  ignore (err_req {|{"verb":"warp"}|});
  ignore (err_req {|{"verb":"flow"}|});
  ignore (err_req {|{"verb":"sleep"}|});
  ignore (err_req {|{"verb":"flow","file":"a.xml","tier":"gold"}|})

(* -- journal format -- *)

let test_journal_lines () =
  Alcotest.(check string)
    "allocated line"
    {|{"case":"a.xml","status":"allocated","throughput":"1/30"}|}
    (Journal.to_line (Journal.allocated ~case:"a.xml" (Sdf.Rat.make 1 30)));
  Alcotest.(check string)
    "partial line"
    {|{"case":"a.xml","status":"partial","reason":"states"}|}
    (Journal.to_line (Journal.partial ~case:"a.xml" Budget.States));
  Alcotest.(check string)
    "failed line"
    {|{"case":"a.xml","status":"failed","reason":"bind_failed"}|}
    (Journal.to_line (Journal.failed ~case:"a.xml" "bind_failed"));
  (* The escapes matter: case ids are file names, messages are exception
     strings. *)
  Alcotest.(check string)
    "error line escapes"
    {|{"case":"a\"b.xml","status":"error","message":"tab\there"}|}
    (Journal.to_line (Journal.error ~case:"a\"b.xml" "tab\there"))

(* -- handler -- *)

let with_handler ?(capacity = 4) f =
  fresh @@ fun () ->
  let root = Filename.temp_file "serve_root" "" in
  Sys.remove root;
  Unix.mkdir root 0o755;
  let app = Appmodel.Models.example_app () in
  Appmodel.Sdf3_xml.write_app_file (Filename.concat root "app.xml") app;
  let journal_path = Filename.concat root "journal.jsonl" in
  let journal = open_out journal_path in
  let admission = Admission.create ~capacity () in
  let cancel = Budget.Cancel.create () in
  let h = Handler.create ~root ~journal ~cancel ~admission () in
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr journal;
      Array.iter
        (fun f -> Sys.remove (Filename.concat root f))
        (Sys.readdir root);
      Unix.rmdir root)
    (fun () -> f h ~journal_path ~cancel)

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let test_handler_flow_and_journal () =
  with_handler @@ fun h ~journal_path ~cancel:_ ->
  let resp =
    Handler.handle h
      {|{"id":"1","verb":"flow","file":"app.xml","platform":"example"}|}
  in
  let prefix = {|{"id":"1","status":"ok","verb":"flow","result":{"case":"app.xml","status":"allocated"|} in
  Alcotest.(check bool)
    "allocated response" true
    (String.starts_with ~prefix resp);
  (* The journal line is exactly the response's result object. *)
  (match read_lines journal_path with
  | [ line ] ->
      Alcotest.(check bool)
        "journal line embedded in response" true
        (String.ends_with ~suffix:({|"result":|} ^ line ^ "}") resp)
  | lines -> Alcotest.failf "expected 1 journal line, got %d" (List.length lines));
  Alcotest.(check int) "served" 1 (Handler.requests_served h)

let test_handler_isolation () =
  with_handler @@ fun h ~journal_path ~cancel:_ ->
  (* A missing file, an unknown platform and malformed JSON are all this
     request's problem, never the handler's. *)
  let missing =
    Handler.handle h {|{"id":"m","verb":"flow","file":"nope.xml"}|}
  in
  Alcotest.(check bool) "missing file is an error reply" true
    (String.starts_with ~prefix:{|{"id":"m","status":"error"|} missing);
  let badplat =
    Handler.handle h
      {|{"id":"p","verb":"flow","file":"app.xml","platform":"hypercube"}|}
  in
  Alcotest.(check bool) "unknown platform answered" true
    (String.length badplat > 0);
  let malformed = Handler.handle h "{{{" in
  Alcotest.(check bool)
    "malformed echoes null id" true
    (String.starts_with ~prefix:{|{"id":null,"status":"error"|} malformed);
  (* Journal: one error line for the missing file, one for the platform. *)
  Alcotest.(check int) "journal isolates failures" 2
    (List.length (read_lines journal_path))

let test_handler_drain_rejection () =
  with_handler @@ fun h ~journal_path:_ ~cancel:_ ->
  let d = Handler.handle h {|{"id":"d","verb":"drain"}|} in
  Alcotest.(check string)
    "drain acknowledged"
    {|{"id":"d","status":"ok","verb":"drain"}|}
    d;
  Alcotest.(check bool) "admission draining" true
    (Admission.draining (Handler.admission h));
  let rejected =
    Handler.handle h {|{"id":"r","verb":"flow","file":"app.xml"}|}
  in
  Alcotest.(check string)
    "work rejected while draining"
    {|{"id":"r","status":"draining","error":"server is draining"}|}
    rejected;
  let status = Handler.handle h {|{"id":"s","verb":"status"}|} in
  Alcotest.(check bool) "status still served" true
    (String.starts_with ~prefix:{|{"id":"s","status":"ok","verb":"status"|}
       status)

let test_handler_overload () =
  with_handler ~capacity:1 @@ fun h ~journal_path:_ ~cancel:_ ->
  (* Pin the single slot with a real concurrent sleeper, then watch a
     flow request bounce. *)
  (* Thread bodies only record their reply; assertions stay on the main
     thread. *)
  let slept = ref "" in
  let sleeper =
    Thread.create
      (fun () ->
        slept := Handler.handle h {|{"id":"z","verb":"sleep","ms":400}|})
      ()
  in
  let deadline = Unix.gettimeofday () +. 5. in
  while
    Admission.in_flight (Handler.admission h) = 0
    && Unix.gettimeofday () < deadline
  do
    Thread.yield ()
  done;
  let resp = Handler.handle h {|{"id":"o","verb":"flow","file":"app.xml"}|} in
  Alcotest.(check string)
    "overloaded"
    {|{"id":"o","status":"overloaded","error":"server at capacity"}|}
    resp;
  Thread.join sleeper;
  Alcotest.(check string)
    "sleeper answered"
    {|{"id":"z","status":"ok","verb":"sleep","result":{"slept_ms":400}}|}
    !slept;
  Alcotest.(check bool) "slot released after sleep" true
    (Admission.in_flight (Handler.admission h) = 0)

let test_handler_sleep_cancel () =
  with_handler @@ fun h ~journal_path:_ ~cancel ->
  let slept = ref "" in
  let sleeper =
    Thread.create
      (fun () ->
        slept := Handler.handle h {|{"id":"c","verb":"sleep","ms":60000}|})
      ()
  in
  let deadline = Unix.gettimeofday () +. 5. in
  while
    Admission.in_flight (Handler.admission h) = 0
    && Unix.gettimeofday () < deadline
  do
    Thread.yield ()
  done;
  (* SIGTERM path: the shared token interrupts even a long sleep. *)
  Budget.Cancel.trigger cancel;
  let t0 = Unix.gettimeofday () in
  Thread.join sleeper;
  Alcotest.(check bool) "cancelled promptly" true
    (Unix.gettimeofday () -. t0 < 5.);
  Alcotest.(check bool)
    "sleeper answered cancelled" true
    (String.starts_with ~prefix:{|{"id":"c","status":"cancelled"|} !slept)

(* -- daemon pipelining over a real socket -- *)

let write_all_fd fd s =
  let b = Bytes.of_string s in
  let off = ref 0 in
  while !off < Bytes.length b do
    match Unix.write fd b !off (Bytes.length b - !off) with
    | n -> off := !off + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* The analyze verb is a thin wire wrapper over the budgeted self-timed
   engine: under each tier's budget its reply must be byte-identical to
   the reply built from a direct [Selftimed.analyze_budgeted] run, both
   computed from a cold memo. *)
let test_handler_analyze_matches_engine () =
  with_handler @@ fun h ~journal_path:_ ~cancel:_ ->
  let app = Appmodel.Models.example_app () in
  let g = app.Appmodel.Appgraph.graph in
  let taus =
    Array.init (Sdf.Sdfg.num_actors g) (fun a ->
        Appmodel.Appgraph.max_exec_time app a)
  in
  List.iter
    (fun tier ->
      let label = Tier.label tier in
      Analysis.Memo.clear_all ();
      let reply =
        Handler.handle h
          (Printf.sprintf
             {|{"id":"%s","verb":"analyze","file":"app.xml","tier":"%s"}|}
             label label)
      in
      Analysis.Memo.clear_all ();
      let result =
        match
          Analysis.Selftimed.analyze_budgeted ~budget:(Tier.budget tier) g taus
        with
        | Ok r ->
            Printf.sprintf
              {|{"case":"app.xml","status":"analyzed","graph":"%s","actors":%d,"channels":%d,"states":%d,"throughput":"%s"}|}
              app.Appmodel.Appgraph.app_name (Sdf.Sdfg.num_actors g)
              (Sdf.Sdfg.num_channels g) r.Analysis.Selftimed.states
              (Sdf.Rat.to_string r.Analysis.Selftimed.throughput.(0))
        | Error p ->
            Journal.to_line
              (Journal.partial ~case:"app.xml" p.Analysis.Selftimed.reason)
      in
      Alcotest.(check string)
        (label ^ " reply = direct engine run")
        (Printf.sprintf
           {|{"id":"%s","status":"ok","verb":"analyze","result":%s}|} label
           result)
        reply)
    Tier.all

(* Regression for concurrent completions on one connection: hammer a
   single socket with pipelined work requests (they run concurrently on
   the worker pool and complete in arbitrary order) and assert every
   response line parses cleanly with the right id exactly once — the
   per-connection write mutex is what keeps response bytes from
   interleaving. *)
let test_daemon_pipelined_socket () =
  fresh @@ fun () ->
  let sock = Filename.temp_file "serve_pipe" ".sock" in
  Sys.remove sock;
  let admission = Admission.create ~reserved:2 ~capacity:32 () in
  let cancel = Budget.Cancel.create () in
  let h = Handler.create ~admission ~cancel () in
  let cfg =
    {
      (Server.Daemon.default_config ~socket_path:sock) with
      Server.Daemon.idle_timeout_s = 30.;
      read_timeout_s = 30.;
    }
  in
  let ready_m = Mutex.create () in
  let ready_c = Condition.create () in
  let ready = ref false in
  let daemon =
    Thread.create
      (fun () ->
        ignore
          (Server.Daemon.run
             ~on_ready:(fun () ->
               Mutex.lock ready_m;
               ready := true;
               Condition.signal ready_c;
               Mutex.unlock ready_m)
             cfg h ~cancel))
      ()
  in
  Mutex.lock ready_m;
  while not !ready do
    Condition.wait ready_c ready_m
  done;
  Mutex.unlock ready_m;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let rec read_line () =
    let s = Buffer.contents buf in
    match String.index_opt s '\n' with
    | Some i ->
        Buffer.clear buf;
        Buffer.add_string buf (String.sub s (i + 1) (String.length s - i - 1));
        Some (String.sub s 0 i)
    | None -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> None
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            read_line ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_line ())
  in
  let n = 24 in
  let reqs =
    List.init n (fun i ->
        let tier =
          match i mod 3 with
          | 0 -> "interactive"
          | 1 -> "standard"
          | _ -> "batch"
        in
        Printf.sprintf {|{"id":"h%d","verb":"sleep","ms":%d,"tier":"%s"}|} i
          (5 + (i mod 7))
          tier)
  in
  write_all_fd fd (String.concat "\n" reqs ^ "\n");
  let ids = Hashtbl.create 32 in
  for _ = 1 to n do
    match read_line () with
    | None -> Alcotest.fail "connection closed before all responses"
    | Some line -> (
        match Obs.Json.parse line with
        | Error e -> Alcotest.failf "unparseable response %S: %s" line e
        | Ok j ->
            (match Obs.Json.member "status" j with
            | Some (Obs.Json.String "ok") -> ()
            | _ -> Alcotest.failf "unexpected status in %s" line);
            (match Obs.Json.member "id" j with
            | Some (Obs.Json.String id) ->
                if Hashtbl.mem ids id then
                  Alcotest.failf "duplicate response id %s" id;
                Hashtbl.add ids id ()
            | _ -> Alcotest.failf "missing id in %s" line))
  done;
  for i = 0 to n - 1 do
    if not (Hashtbl.mem ids (Printf.sprintf "h%d" i)) then
      Alcotest.failf "no response for id h%d" i
  done;
  write_all_fd fd ({|{"id":"d","verb":"drain"}|} ^ "\n");
  (match read_line () with
  | Some line ->
      Alcotest.(check bool)
        "drain acknowledged" true
        (String.starts_with ~prefix:{|{"id":"d","status":"ok"|} line)
  | None -> Alcotest.fail "no drain ack");
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Thread.join daemon;
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists sock)

let suite =
  [
    Alcotest.test_case "tier names" `Quick test_tier_names;
    Alcotest.test_case "tier budgets" `Quick test_tier_budgets;
    Alcotest.test_case "admission window" `Quick test_admission_window;
    Alcotest.test_case "admission drain" `Quick test_admission_drain;
    Alcotest.test_case "admission capacity clamp" `Quick
      test_admission_capacity_clamp;
    Alcotest.test_case "admission reserved slots" `Quick
      test_admission_reserved;
    Helpers.qcheck ~count:300
      "admission model: interactive never starved by batch"
      QCheck2.Gen.(
        triple (int_range 1 6) (int_range 0 6)
          (list_size (int_range 0 60) (int_range 0 1000)))
      admission_model_prop;
    Alcotest.test_case "workqueue priority + FIFO" `Quick
      test_workqueue_priority_fifo;
    Alcotest.test_case "workqueue close" `Quick test_workqueue_close;
    Helpers.qcheck ~count:200 "workqueue FIFO within class"
      QCheck2.Gen.(list_size (int_range 0 40) bool)
      workqueue_fifo_prop;
    Alcotest.test_case "request parsing" `Quick test_request_parsing;
    Alcotest.test_case "journal lines" `Quick test_journal_lines;
    Alcotest.test_case "handler flow + journal" `Quick
      test_handler_flow_and_journal;
    Alcotest.test_case "handler failure isolation" `Quick
      test_handler_isolation;
    Alcotest.test_case "handler drain rejection" `Quick
      test_handler_drain_rejection;
    Alcotest.test_case "handler overload" `Quick test_handler_overload;
    Alcotest.test_case "handler sleep cancel" `Quick test_handler_sleep_cancel;
    Alcotest.test_case "handler analyze = engine per tier" `Quick
      test_handler_analyze_matches_engine;
    Alcotest.test_case "daemon pipelined socket" `Quick
      test_daemon_pipelined_socket;
  ]
