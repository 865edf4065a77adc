(* What every workload receives, and what it hands back. *)

type t = {
  seed : int;
  seconds : float;
  trace : bool;
  workdir : string;  (** scratch space inside the checkout *)
  serve_bin : string;  (** the sdf3_serve executable *)
}

type outcome = {
  end_to_end : Metric.t list;  (** every end-to-end metric but setup_s *)
  layers : Metric.t list;  (** traced runs only *)
  attempted : int;
  failed : int;
}

(* Start recording: registry, timeline, states/s heartbeats and the
   benchmark's own spans — what the CLIs switch on for --metrics/--trace. *)
let start_tracing () =
  Obs.reset ();
  Obs.Trace.reset ();
  Tracer.reset ();
  Obs.set_enabled true;
  Obs.Trace.set_thread_name "main";
  Obs.Trace.start ();
  Budget.set_probe_hook (fun ~states -> Obs.Heartbeat.probe ~states);
  Tracer.enable true

let stop_tracing () =
  Tracer.enable false;
  Obs.set_enabled false;
  Budget.set_probe_hook (fun ~states:_ -> ())

(* Validate the collected timeline and write it next to the run's other
   files. Returns the number of trace events. *)
let write_trace t ~name =
  let j = Obs.Trace.json () in
  match Obs.Trace.validate j with
  | Error e -> Util.incorrect "trace %s does not validate: %s" name e
  | Ok s ->
      Util.write_file
        (Filename.concat t.workdir (name ^ ".trace.json"))
        (Obs.Json.to_compact_string j);
      s.Obs.Trace.events

let digest_dir t = Filename.concat t.workdir "digests"

(* Traced runs alternate untraced and traced passes over the same
   operations this many times; on a busy host one pair cannot resolve a
   few percent of overhead. *)
let pairs = 3

(* [walls] are the (untraced, traced) seconds of each pair. *)
let tracing_metrics ~walls ~op ~ops =
  let op_busy = Tracer.busy op and op_self = Tracer.self op in
  let ratios = List.map (fun (u, t) -> Util.ratio t u) walls in
  [
    Metric.v "obs.overhead_ratio" "ratio" (Util.median (Util.sorted ratios))
      ~base:
        (Printf.sprintf "traced / untraced pass time, median of %s"
           (String.concat ", " (List.map (Printf.sprintf "%.3f") ratios)));
    Metric.v "trace.unexplained_share" "ratio" (Util.ratio op_self op_busy)
      ~base:(Printf.sprintf "%.4fs of %.4fs %s time outside layer spans" op_self op_busy op);
    Metric.v "ops.traced" "count" (float_of_int ops);
  ]
