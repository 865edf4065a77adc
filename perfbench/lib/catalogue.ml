(* Every metric the benchmark reports, in output order: (name, unit,
   better). BENCHMARK.json lists the same entries. *)

let end_to_end =
  [
    ("setup_s", "s", "lower");
    ("peak_rss_mb", "MiB", "lower");
    ("apps_per_s", "1/s", "higher");
    ("op_p50_ms", "ms", "lower");
    ("op_tail_ms", "ms", "lower");
    ("apps_bound", "count", "higher");
    ("ok_ratio", "ratio", "higher");
  ]

let per_layer =
  [
    ("binding_step.busy_s", "s", "lower");
    ("binding_step.calls", "count", "higher");
    ("binding_step.fail_ratio", "ratio", "lower");
    ("list_scheduler.busy_s", "s", "lower");
    ("list_scheduler.fail_ratio", "ratio", "lower");
    ("slice_alloc.busy_s", "s", "lower");
    ("slice_alloc.share", "ratio", "lower");
    ("slice_alloc.probes", "count", "lower");
    ("slice_alloc.probes_per_app", "count", "lower");
    ("slice_alloc.us_per_probe", "us", "lower");
    ("bind_aware.build_us", "us", "lower");
    ("bind_aware.build_share", "ratio", "lower");
    ("constrained.states_per_probe", "states", "lower");
    ("constrained.states_per_s", "1/s", "higher");
    ("engine.bytes_per_state", "B", "lower");
    ("engine.states", "states", "lower");
    ("selftimed.states_per_s", "1/s", "higher");
    ("budget.partial_ratio", "ratio", "lower");
    ("memo.constrained.hit_ratio", "ratio", "higher");
    ("memo.constrained.lookups", "count", "lower");
    ("memo.selftimed.hit_ratio", "ratio", "higher");
    ("memo.selftimed.lookups", "count", "lower");
    ("memo.lookup_us", "us", "lower");
    ("flow.rungs_per_app", "count", "lower");
    ("sdf3_xml.read_us", "us", "lower");
    ("par.utilisation", "ratio", "higher");
    ("par.speedup", "ratio", "higher");
    ("serve.req_per_s", "1/s", "higher");
    ("serve.ok_ratio", "ratio", "higher");
    ("serve.interactive_p50_ms", "ms", "lower");
    ("serve.interactive_tail_ms", "ms", "lower");
    ("serve.batch_p50_ms", "ms", "lower");
    ("serve.batch_tail_ms", "ms", "lower");
    ("server.boot_ms", "ms", "lower");
    ("server.peak_rss_mb", "MiB", "lower");
    ("server.interactive_p50_ms", "ms", "lower");
    ("server.batch_p50_ms", "ms", "lower");
    ("server.wait_p50_ms", "ms", "lower");
    ("server.overloaded_ratio", "ratio", "lower");
    ("server.preempt.reserved_admits", "count", "higher");
    ("server.preempt.normal_blocked", "count", "lower");
    ("server.queue_depth_max", "count", "lower");
    ("server.overhead_ratio", "ratio", "lower");
    ("server.unexplained_share", "ratio", "lower");
    ("loadgen.lag_p99_ms", "ms", "lower");
    ("loadgen.lag_max_ms", "ms", "lower");
    ("obs.overhead_ratio", "ratio", "lower");
    ("trace.unexplained_share", "ratio", "lower");
    ("ops.traced", "count", "higher");
  ]

(* Order [metrics] as [entries], checking units. With [fill], a catalogue
   metric the workload did not produce is reported as 0 — its layer is
   not on this workload's path; without, it is a bug, as is a produced
   metric outside the catalogue. *)
let complete ~fill entries (metrics : Metric.t list) =
  List.iter
    (fun (m : Metric.t) ->
      if not (List.exists (fun (n, _, _) -> n = m.Metric.name) entries) then
        invalid_arg ("metric outside the catalogue: " ^ m.Metric.name))
    metrics;
  List.map
    (fun (name, unit_, _) ->
      match List.find_opt (fun (m : Metric.t) -> m.Metric.name = name) metrics with
      | Some m ->
          if m.Metric.unit_ <> unit_ then
            invalid_arg (Printf.sprintf "metric %s: unit %s, catalogue %s" name
                           m.Metric.unit_ unit_);
          m
      | None when fill -> Metric.v name unit_ 0. ~base:"not on this workload's path"
      | None -> invalid_arg ("missing metric " ^ name))
    entries
