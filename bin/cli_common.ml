(* Shared command-line plumbing for the sdf3_* binaries: the Logs reporter
   setup (previously only sdf3_flow installed one, so library log sources
   were silently dropped by the other tools) and the telemetry flags. *)

let setup_logs level =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level level

open Cmdliner

let log_level =
  Arg.(
    value
    & opt
        (enum
           [ ("quiet", None); ("info", Some Logs.Info); ("debug", Some Logs.Debug) ])
        None
    & info [ "log" ] ~docv:"LEVEL"
        ~doc:"Logging: quiet (default), info (progress) or debug (every \
              probe, plus live telemetry spans when metrics are enabled)")

let metrics_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Enable telemetry and write the registry (counters, timers, \
              events) as JSON to $(docv) on exit")

let metrics_stderr =
  Arg.(
    value & flag
    & info [ "metrics-stderr" ]
        ~doc:"Enable telemetry and dump the registry as JSON to stderr on \
              exit")

let trace_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Enable timeline tracing and write the run as Chrome \
              trace-event JSON (openable in Perfetto or chrome://tracing) \
              to $(docv) on exit; parallel work appears as one track per \
              domain")

let jobs =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:"Evaluate independent cases / sweep points on $(docv) \
              domains (default 1: strictly sequential, byte-identical \
              output). 0 picks the machine's recommended domain count.")

(* Call before the workload. The worker hook is installed first so the
   pool's domains label their own trace tracks as they spawn. *)
let init_jobs n =
  Par.set_worker_hook (fun i ->
      Obs.Trace.set_thread_name (Printf.sprintf "worker %d" (i + 1)));
  Par.set_jobs n

(* Call before the workload: enables the registry (and the Logs live sink
   at debug level) when any metrics output was requested, starts the
   timeline when a trace was, and routes the budget's amortised probe to
   the states/s heartbeat in either case. *)
let init_metrics ?(trace = None) ~file ~to_stderr () =
  if file <> None || to_stderr then begin
    Obs.set_enabled true;
    Obs.Sink.logs ()
  end;
  (match trace with
  | None -> ()
  | Some _ ->
      Obs.set_enabled true;
      Obs.Trace.set_thread_name "main";
      Obs.Trace.start ());
  if Obs.enabled () then
    Budget.set_probe_hook (fun ~states -> Obs.Heartbeat.probe ~states)

(* [Par] is dependency-free (it cannot record into [Obs] itself), so the
   pool's lifetime totals are copied into counters at serialization time. *)
let export_par_stats () =
  if Obs.enabled () then begin
    Obs.Counter.add "pool.jobs" (Par.jobs ());
    Obs.Counter.add "pool.tasks" (Par.tasks_executed ());
    Obs.Counter.add "pool.skipped" (Par.tasks_skipped ());
    Obs.Counter.add "pool.batches" (Par.batches_executed ())
  end

let write_metrics ?(trace = None) ~file ~to_stderr () =
  export_par_stats ();
  (match file with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> Obs.write_channel oc));
  if to_stderr then begin
    Obs.write_channel stderr;
    flush stderr
  end;
  match trace with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> Obs.Trace.write_channel oc)
