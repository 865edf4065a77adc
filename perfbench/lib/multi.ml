(* The runner of the two [Multi_app] workloads (grid, multimedia): timed
   passes over a list of [Multi_app.allocate_until_failure] calls, and
   the traced replica of [Strategy.allocate]'s three steps plus
   [Multi_app.commit] with a span around each layer. *)

module Strategy = Core.Strategy
module Multi_app = Core.Multi_app
module Appgraph = Appmodel.Appgraph

type outcome = {
  lines : string list;  (** digest lines, one per decided application *)
  allocs : Strategy.allocation list;
  decided : int;  (** allocated plus the rejected one, if any *)
}

let of_report apps (r : Multi_app.report) =
  let allocs = r.Multi_app.allocations in
  {
    lines = Gate.report_lines apps r;
    allocs;
    decided =
      List.length allocs + if r.Multi_app.first_failure = None then 0 else 1;
  }

let allocate ~weights ~max_states apps arch =
  of_report apps (Multi_app.allocate_until_failure ~weights ~max_states apps arch)

(* Layer counts the replica sees. *)
type counts = {
  mutable bind_calls : int;
  mutable bind_failed : int;
  mutable sched_calls : int;
  mutable sched_failed : int;
  mutable slice_calls : int;
  mutable probes : int;
}

let counts =
  {
    bind_calls = 0;
    bind_failed = 0;
    sched_calls = 0;
    sched_failed = 0;
    slice_calls = 0;
    probes = 0;
  }

let reset_counts () =
  counts.bind_calls <- 0;
  counts.bind_failed <- 0;
  counts.sched_calls <- 0;
  counts.sched_failed <- 0;
  counts.slice_calls <- 0;
  counts.probes <- 0

(* [Multi_app.allocate_until_failure ~weights] with its defaults (given
   order, stop at the first failure, one ladder rung, infinite budget),
   unrolled so each layer call gets its own span. *)
let replica ~weights ~max_states apps arch =
  let fail acc f =
    let allocs = List.rev acc in
    let name =
      match List.nth_opt apps (List.length allocs) with
      | Some (app : Appgraph.t) -> app.Appgraph.app_name
      | None -> "?"
    in
    ( allocs,
      List.map Gate.allocation_line allocs @ [ Gate.failure_line name f ],
      true )
  in
  let rec go acc arch = function
    | [] -> (List.rev acc, List.map Gate.allocation_line (List.rev acc), false)
    | app :: rest -> (
        counts.bind_calls <- counts.bind_calls + 1;
        match
          Tracer.span "binding_step.bind" (fun () ->
              Core.Binding_step.bind ~weights app arch)
        with
        | Error e ->
            counts.bind_failed <- counts.bind_failed + 1;
            fail acc (Strategy.Bind_failed e)
        | Ok binding -> (
            let ba50 =
              Tracer.span "bind_aware.build" (fun () ->
                  let half = Core.Bind_aware.half_wheel_slices app arch binding in
                  Core.Bind_aware.build ~app ~arch ~binding ~slices:half ())
            in
            counts.sched_calls <- counts.sched_calls + 1;
            match
              Tracer.span "list_scheduler.schedules" (fun () ->
                  match Core.List_scheduler.schedules ~max_states ba50 with
                  | s -> Some s
                  | exception
                      ( Core.List_scheduler.Deadlocked
                      | Core.List_scheduler.State_space_exceeded _ ) ->
                      None)
            with
            | None ->
                counts.sched_failed <- counts.sched_failed + 1;
                fail acc Strategy.Schedule_failed
            | Some schedules -> (
                counts.slice_calls <- counts.slice_calls + 1;
                match
                  Tracer.span "slice_alloc.allocate" (fun () ->
                      Core.Slice_alloc.allocate ~max_states ~budget:Budget.infinite
                        app arch binding schedules)
                with
                | Error f ->
                    counts.probes <- counts.probes + f.Core.Slice_alloc.checks;
                    fail acc
                      (match f.Core.Slice_alloc.budget_tripped with
                      | Some r -> Strategy.Budget_exhausted r
                      | None -> Strategy.Slice_failed f)
                | Ok o ->
                    counts.probes <- counts.probes + o.Core.Slice_alloc.checks;
                    let alloc =
                      {
                        Strategy.app;
                        arch;
                        binding;
                        schedules;
                        slices = o.Core.Slice_alloc.slices;
                        throughput = o.Core.Slice_alloc.throughput;
                        stats =
                          {
                            Strategy.throughput_checks = o.Core.Slice_alloc.checks;
                            bind_seconds = 0.;
                            schedule_seconds = 0.;
                            slice_seconds = 0.;
                          };
                      }
                    in
                    let arch =
                      Tracer.span "multi_app.commit" (fun () -> Multi_app.commit arch alloc)
                    in
                    go (alloc :: acc) arch rest)))
  in
  go [] arch apps

(* The replica must reproduce the timed call's allocations exactly. *)
let same_allocation (a : Strategy.allocation) (b : Strategy.allocation) =
  a.Strategy.binding = b.Strategy.binding
  && a.Strategy.schedules = b.Strategy.schedules
  && a.Strategy.slices = b.Strategy.slices
  && Sdf.Rat.compare a.Strategy.throughput b.Strategy.throughput = 0

let check_replica ~what (o : outcome) (allocs, lines, _) =
  if
    List.length allocs <> List.length o.allocs
    || not (List.for_all2 same_allocation allocs o.allocs)
    || lines <> o.lines
  then Util.incorrect "%s: traced replica differs from allocate_until_failure" what

(* Per-layer metrics from the replica's spans and counts. [op] names the
   span wrapping one unit operation. *)
let layer_metrics ~op ~apps_decided =
  let c = counts in
  let bind = Tracer.busy "binding_step.bind" in
  let sched = Tracer.busy "list_scheduler.schedules" in
  let slice = Tracer.busy "slice_alloc.allocate" in
  let op_busy = Tracer.busy op in
  [
    Metric.v "binding_step.busy_s" "s" bind
      ~base:(Printf.sprintf "%d calls" c.bind_calls);
    Metric.v "binding_step.calls" "count" (float_of_int c.bind_calls);
    Metric.v "binding_step.fail_ratio" "ratio"
      (Util.ratio (float_of_int c.bind_failed) (float_of_int c.bind_calls))
      ~base:(Printf.sprintf "%d / %d" c.bind_failed c.bind_calls);
    Metric.v "list_scheduler.busy_s" "s" sched
      ~base:(Printf.sprintf "%d calls" c.sched_calls);
    Metric.v "list_scheduler.fail_ratio" "ratio"
      (Util.ratio (float_of_int c.sched_failed) (float_of_int c.sched_calls))
      ~base:(Printf.sprintf "%d / %d" c.sched_failed c.sched_calls);
    Metric.v "slice_alloc.busy_s" "s" slice
      ~base:(Printf.sprintf "%d calls" c.slice_calls);
    Metric.v "slice_alloc.share" "ratio" (Util.ratio slice op_busy)
      ~base:(Printf.sprintf "%.4fs of %.4fs op time" slice op_busy);
    Metric.v "slice_alloc.probes" "count" (float_of_int c.probes);
    Metric.v "slice_alloc.probes_per_app" "count"
      (Util.ratio (float_of_int c.probes) (float_of_int c.slice_calls))
      ~base:(Printf.sprintf "%d probes / %d apps" c.probes c.slice_calls);
    Metric.v "slice_alloc.us_per_probe" "us"
      (Util.ratio (slice *. 1e6) (float_of_int c.probes))
      ~base:(Printf.sprintf "%.4fs / %d probes" slice c.probes);
    Metric.v "flow.rungs_per_app" "count"
      (Util.ratio (float_of_int c.bind_calls) (float_of_int apps_decided))
      ~base:(Printf.sprintf "%d strategy runs / %d apps (one-rung ladder)"
               c.bind_calls apps_decided);
  ]

(* ------------------------------------------------------------------ *)
(* Passes                                                             *)
(* ------------------------------------------------------------------ *)

(* One unit operation: one [allocate_until_failure] call. *)
type op = { weights : Core.Cost.weights; apps : Appgraph.t list; arch : Platform.Archgraph.t }

type pass = {
  wall : float;
  times : float list;  (** seconds per operation *)
  gaps : float list;  (** seconds between one operation's end and the next start *)
  outcomes : outcome list;
}

(* One pass: the memo is cleared first, and before every operation with
   [clear_each]; each operation is timed on its own. *)
let run_pass ~clear_each ops ~f =
  Analysis.Memo.clear_all ();
  let t0 = Util.now () in
  let last = ref t0 and times = ref [] and gaps = ref [] and outs = ref [] in
  List.iter
    (fun op ->
      if clear_each then Analysis.Memo.clear_all ();
      let s = Util.now () in
      gaps := (s -. !last) :: !gaps;
      let o = f op in
      let e = Util.now () in
      last := e;
      times := (e -. s) :: !times;
      outs := o :: !outs)
    ops;
  let wall = Util.now () -. t0 in
  Printf.printf "pass: %.3fs\n%!" wall;
  { wall; times = !times; gaps = !gaps; outcomes = List.rev !outs }

let lines p = List.concat_map (fun o -> o.lines) p.outcomes
let allocs p = List.concat_map (fun o -> o.allocs) p.outcomes
let decided p = List.fold_left (fun n o -> n + o.decided) 0 p.outcomes

(* Run a [Multi_app] workload. [name] prefixes the digest, the trace and
   the op span; [graphs] are its distinct applications, for the replays
   ([selftimed] the ones the self-timed replay explores). *)
let run (t : Ctx.t) ~name ~max_states ~clear_each ~graphs ~selftimed ops : Ctx.outcome =
  let timed op = allocate ~weights:op.weights ~max_states op.apps op.arch in
  let first = run_pass ~clear_each ops ~f:timed in
  let digest = Gate.digest (lines first) in
  (* Untraced runs repeat whole passes for the run's length; a traced run
     alternates untraced passes with traced replica passes. *)
  let passes =
    if t.Ctx.trace then [ first ]
    else
      let rec more acc elapsed =
        if elapsed >= t.Ctx.seconds then List.rev acc
        else
          let p = run_pass ~clear_each ops ~f:timed in
          if Gate.digest (lines p) <> digest then
            Util.incorrect "%s: pass outcomes differ from the first pass" name;
          more (p :: acc) (elapsed +. p.wall)
      in
      more [ first ] first.wall
  in
  let rss = Util.peak_rss_mb () in
  let op_span = name ^ ".op" in
  let layers =
    if not t.Ctx.trace then []
    else begin
      let pair () =
        let untraced = run_pass ~clear_each ops ~f:timed in
        if Gate.digest (lines untraced) <> digest then
          Util.incorrect "%s: pass outcomes differ from the first pass" name;
        (* Each traced pass starts from an empty registry, so the layer
           metrics below describe the last one. *)
        reset_counts ();
        Ctx.start_tracing ();
        let expected = ref first.outcomes in
        let traced =
          run_pass ~clear_each ops ~f:(fun op ->
              let e = List.hd !expected in
              expected := List.tl !expected;
              let r =
                Tracer.span op_span (fun () ->
                    replica ~weights:op.weights ~max_states op.apps op.arch)
              in
              check_replica ~what:name e r;
              e)
        in
        Ctx.stop_tracing ();
        (untraced.wall, traced)
      in
      let pairs = List.init Ctx.pairs (fun _ -> pair ()) in
      let traced = snd (List.nth pairs (Ctx.pairs - 1)) in
      let reg = Obs.snapshot_json () in
      let events = Ctx.write_trace t ~name:(Printf.sprintf "%s-%d" name t.Ctx.seed) in
      Printf.printf "trace: %d events validated\n" events;
      Obs.set_enabled true;
      let probes = Replay.probes ~max_states (allocs first) in
      Obs.set_enabled false;
      let selftimed = Replay.selftimed selftimed in
      let reads = Util.sorted (Replay.xml_reads graphs) in
      layer_metrics ~op:op_span ~apps_decided:(decided first)
      @ Replay.metrics ~probes ~selftimed
      @ Layers.memo reg @ Layers.engine reg
      @ [
          Metric.v "sdf3_xml.read_us" "us" (Util.median reads *. 1e6)
            ~base:(Printf.sprintf "median of %d replayed parses" (Array.length reads));
          Metric.v "par.utilisation" "ratio"
            (Util.ratio (Tracer.busy op_span) traced.wall)
            ~base:"1 job: op time / wall";
        ]
      @ Layers.lag traced.gaps
      @ Ctx.tracing_metrics ~op:op_span
          ~walls:(List.map (fun (u, (t : pass)) -> (u, t.wall)) pairs)
          ~ops:(List.length ops)
    end
  in
  (* Correctness gate, outside every timed region. *)
  let checked = Gate.check_all ~max_states (allocs first) in
  Printf.printf "gate: %d allocations verified, digest %s\n" checked digest;
  Gate.pin ~dir:(Ctx.digest_dir t) ~key:(Printf.sprintf "%s-%d" name t.Ctx.seed) digest;
  let wall = Util.sum (List.map (fun p -> p.wall) passes) in
  let times = Util.sorted (List.concat_map (fun p -> p.times) passes) in
  let tail, tail_base = Util.pass_tail (List.map (fun p -> p.times) passes) in
  let decided_total = List.fold_left (fun n p -> n + decided p) 0 passes in
  let n = Array.length times in
  {
    Ctx.end_to_end =
      [
        Metric.v "peak_rss_mb" "MiB" rss;
        Metric.v "apps_per_s" "1/s"
          (Util.median_rate (List.map (fun p -> (decided p, p.wall)) passes))
          ~base:(Printf.sprintf "%d apps decided in %.3fs; median of %d passes"
                   decided_total wall (List.length passes));
        Metric.v "op_p50_ms" "ms" (Util.median times *. 1e3)
          ~base:(Printf.sprintf "%d operations" n);
        Metric.v "op_tail_ms" "ms" (tail *. 1e3) ~base:tail_base;
        Metric.v "apps_bound" "count" (float_of_int (List.length (allocs first)))
          ~base:(Printf.sprintf "allocated per pass of %d operations" (List.length ops));
        Metric.v "ok_ratio" "ratio" 1.
          ~base:(Printf.sprintf "%d / %d operations completed; fail_ratio 0" n n);
      ];
    layers;
    attempted = n;
    failed = 0;
  }
