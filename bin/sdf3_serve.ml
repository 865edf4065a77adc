(* Allocation-as-a-service daemon (and its one-shot client mode).

   Daemon: listen on a Unix-domain socket (and optionally loopback TCP)
   for newline-delimited JSON allocation/analysis requests, answer each
   under a per-request QoS budget, keep the analysis memo caches warm
   across requests, journal executed flow requests in the sdf3_batch
   JSONL format, and drain gracefully on the `drain` verb or SIGTERM.

   Client: `--request JSON` (repeatable) connects to a running daemon —
   retrying while it boots — sends each request as one line, waits for
   its reply, and prints it. A rejected request (status "overloaded" or
   "draining") is retried up to --retry times with capped exponential
   backoff; if the final reply is still a rejection the client exits 3,
   so scripts can tell "busy" (3) from "broken" (1). This is what the
   cram tests and the CI serve-smoke job script the protocol with. *)

let connect_retry ~addr ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let domain = Unix.domain_of_sockaddr addr in
  let rec attempt () =
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () -> Some fd
    | exception
        Unix.Unix_error
          ((Unix.ECONNREFUSED | Unix.ENOENT | Unix.EAGAIN), _, _) ->
        Unix.close fd;
        if Unix.gettimeofday () > deadline then None
        else begin
          Unix.sleepf 0.05;
          attempt ()
        end
    | exception e ->
        Unix.close fd;
        raise e
  in
  attempt ()

(* Was the reply an admission rejection (retryable "busy"), as opposed
   to ok or a hard error? *)
let rejected_status line =
  match Obs.Json.parse line with
  | Error _ -> false
  | Ok j -> (
      match Obs.Json.member "status" j with
      | Some (Obs.Json.String ("overloaded" | "draining")) -> true
      | _ -> false)

let client ~socket ~tcp ~timeout_s ~retry requests =
  let addr =
    match tcp with
    | Some port -> Unix.ADDR_INET (Unix.inet_addr_loopback, port)
    | None -> Unix.ADDR_UNIX socket
  in
  let fd = ref None in
  let ensure_fd () =
    match !fd with
    | Some _ as f -> f
    | None -> (
        match connect_retry ~addr ~timeout_s with
        | Some f ->
            fd := Some f;
            !fd
        | None ->
            Printf.eprintf "could not connect within %.0fs\n" timeout_s;
            None)
  in
  let close_fd () =
    Option.iter (fun f -> try Unix.close f with Unix.Unix_error _ -> ()) !fd;
    fd := None
  in
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let send_line f line =
    let b = Bytes.of_string (line ^ "\n") in
    let off = ref 0 in
    try
      while !off < Bytes.length b do
        match Unix.write f b !off (Bytes.length b - !off) with
        | n -> off := !off + n
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done;
      true
    with Unix.Unix_error _ -> false
  in
  (* One reply line; the daemon may close right after the last reply
     (drain), so end-of-stream is reported as [None], not an exception. *)
  let rec read_line f =
    let s = Buffer.contents buf in
    match String.index_opt s '\n' with
    | Some i ->
        Buffer.clear buf;
        Buffer.add_string buf (String.sub s (i + 1) (String.length s - i - 1));
        Some (String.sub s 0 i)
    | None -> (
        match Unix.read f chunk 0 (Bytes.length chunk) with
        | 0 -> None
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            read_line f
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_line f
        | exception Unix.Unix_error _ -> None)
  in
  let incomplete = ref false in
  let rejected = ref false in
  let send_request req =
    let rec attempt k =
      match ensure_fd () with
      | None -> incomplete := true
      | Some f ->
          if not (send_line f req) then begin
            close_fd ();
            incomplete := true
          end
          else (
            match read_line f with
            | None ->
                close_fd ();
                incomplete := true
            | Some reply ->
                if rejected_status reply && k < retry then begin
                  (* Capped exponential backoff before resending. *)
                  Unix.sleepf (Float.min 1.0 (0.05 *. (2. ** float_of_int k)));
                  attempt (k + 1)
                end
                else begin
                  print_endline reply;
                  if rejected_status reply then rejected := true
                end)
    in
    attempt 0
  in
  List.iter send_request requests;
  close_fd ();
  if !incomplete then 1 else if !rejected then 3 else 0

let serve socket tcp root journal max_inflight reserved_slots workers
    cache_capacity idle_timeout read_timeout requests retry connect_timeout
    log_level metrics_file metrics_stderr trace_file =
  if requests <> [] then
    exit (client ~socket ~tcp ~timeout_s:connect_timeout ~retry requests);
  Cli_common.setup_logs log_level;
  Cli_common.init_metrics ~trace:trace_file ~file:metrics_file
    ~to_stderr:metrics_stderr ();
  Option.iter Analysis.Memo.set_capacity_all cache_capacity;
  let cancel = Budget.Cancel.create () in
  let admission =
    Server.Admission.create ~reserved:reserved_slots ~capacity:max_inflight ()
  in
  let journal_oc =
    Option.map
      (fun path ->
        open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path)
      journal
  in
  let handler =
    Server.Handler.create ~root ?journal:journal_oc ~cancel ~admission ()
  in
  (* The handler only flips flags here; the accept loop acts on them at
     its next tick (begin_drain + cancel trigger). *)
  let term = Atomic.make false in
  let on_signal _ = Atomic.set term true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  let cfg =
    {
      (Server.Daemon.default_config ~socket_path:socket) with
      Server.Daemon.tcp_port = tcp;
      idle_timeout_s = idle_timeout;
      read_timeout_s = read_timeout;
      workers;
    }
  in
  let code =
    Server.Daemon.run
      ~external_stop:(fun () -> Atomic.get term)
      ~on_ready:(fun () ->
        Printf.printf "sdf3_serve: listening on %s\n%!" socket)
      cfg handler ~cancel
  in
  Option.iter close_out journal_oc;
  Printf.printf "sdf3_serve: drained after %d request(s), %d rejected\n%!"
    (Server.Handler.requests_served handler)
    (Server.Handler.requests_rejected handler);
  if Obs.enabled () then begin
    let hits = float_of_int (Obs.Counter.value "cache.hits") in
    let misses = float_of_int (Obs.Counter.value "cache.misses") in
    if hits +. misses > 0. then
      Obs.Gauge.set "server.cache_hit_rate" (hits /. (hits +. misses))
  end;
  Cli_common.write_metrics ~trace:trace_file ~file:metrics_file
    ~to_stderr:metrics_stderr ();
  exit code

open Cmdliner

let socket =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket to listen on (daemon) or connect to \
              (client)")

let tcp =
  Arg.(
    value
    & opt (some int) None
    & info [ "tcp" ] ~docv:"PORT"
        ~doc:"Also listen on (or, with --request, connect to) loopback TCP \
              port $(docv)")

let root =
  Arg.(
    value & opt string "."
    & info [ "root" ] ~docv:"DIR"
        ~doc:"Directory request \"file\" fields resolve against")

let journal =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:"Append one sdf3_batch-format JSON line per executed flow \
              request (the durable request log)")

let max_inflight =
  Arg.(
    value & opt int 4
    & info [ "max-inflight" ] ~docv:"N"
        ~doc:"Admission window: concurrent work requests beyond $(docv) \
              are rejected with status \"overloaded\"")

let reserved_slots =
  Arg.(
    value & opt int 1
    & info [ "reserved-slots" ] ~docv:"N"
        ~doc:"Hold $(docv) admission slots back for interactive-tier \
              requests (clamped to at most max-inflight - 1); standard \
              and batch work admits only into the remaining slots")

let workers =
  Arg.(
    value & opt int 0
    & info [ "workers" ] ~docv:"N"
        ~doc:"Worker threads executing admitted requests (0 = one per \
              admission slot). Requests pipelined on one connection run \
              concurrently; responses are matched by id")

let cache_capacity =
  Arg.(
    value
    & opt (some int) None
    & info [ "cache-capacity" ] ~docv:"N"
        ~doc:"Bound every analysis memo table to $(docv) entries \
              (LRU-ish eviction; default 65536 per table)")

let idle_timeout =
  Arg.(
    value & opt float 300.
    & info [ "idle-timeout-s" ] ~docv:"S"
        ~doc:"Close a connection idle between requests for $(docv) seconds")

let read_timeout =
  Arg.(
    value & opt float 30.
    & info [ "read-timeout-s" ] ~docv:"S"
        ~doc:"Close a connection stalled mid-request for $(docv) seconds")

let requests =
  Arg.(
    value & opt_all string []
    & info [ "request" ] ~docv:"JSON"
        ~doc:"Client mode: send $(docv) as one request line to a running \
              daemon and print the reply (repeatable, in order)")

let retry =
  Arg.(
    value & opt int 0
    & info [ "retry" ] ~docv:"N"
        ~doc:"Client mode: resend a rejected request (\"overloaded\" or \
              \"draining\") up to $(docv) times with capped exponential \
              backoff; exit 3 if the final reply is still a rejection")

let connect_timeout =
  Arg.(
    value & opt float 10.
    & info [ "connect-timeout-s" ] ~docv:"S"
        ~doc:"Client mode: retry connecting for up to $(docv) seconds \
              (covers daemon boot time)")

let cmd =
  Cmd.v
    (Cmd.info "sdf3_serve"
       ~doc:
         "Allocation-as-a-service daemon: newline-delimited JSON requests \
          with QoS budgets, admission control, a shared memo cache and \
          graceful drain")
    Term.(
      const serve $ socket $ tcp $ root $ journal $ max_inflight
      $ reserved_slots $ workers $ cache_capacity $ idle_timeout
      $ read_timeout $ requests $ retry $ connect_timeout
      $ Cli_common.log_level $ Cli_common.metrics_file
      $ Cli_common.metrics_stderr $ Cli_common.trace_file)

let () = exit (Cmd.eval cmd)
