(* Per-layer metrics read from an [Obs] registry: the memo tables, the
   exploration engines, budgets, and — for the workloads that go through
   [Flow] rather than the replica — the strategy's own phase timers. *)

module R = Registry

let memo reg =
  let lookups name =
    let h = R.counter reg (Printf.sprintf "cache.%s.hits" name) in
    let m = R.counter reg (Printf.sprintf "cache.%s.misses" name) in
    (h, h +. m)
  in
  let ch, cl = lookups "constrained" and sh, sl = lookups "selftimed" in
  [
    Metric.v "memo.constrained.hit_ratio" "ratio" (Util.ratio ch cl)
      ~base:(Printf.sprintf "%.0f hits / %.0f lookups" ch cl);
    Metric.v "memo.constrained.lookups" "count" cl;
    Metric.v "memo.selftimed.hit_ratio" "ratio" (Util.ratio sh sl)
      ~base:(Printf.sprintf "%.0f hits / %.0f lookups" sh sl);
    Metric.v "memo.selftimed.lookups" "count" sl;
  ]

let engine reg =
  let runs = R.counter reg "constrained.runs" +. R.counter reg "selftimed.runs" in
  let partials = R.counter reg "budget.partials" in
  let states = R.counter reg "constrained.states" +. R.counter reg "selftimed.states" in
  [
    Metric.v "engine.states" "states" states
      ~base:(Printf.sprintf "over %.0f explorations" runs);
    Metric.v "budget.partial_ratio" "ratio" (Util.ratio partials runs)
      ~base:(Printf.sprintf "%.0f budget-cut / %.0f explorations" partials runs);
  ]

(* The strategy's phase timers and outcome counters ([Strategy.allocate]
   records them whenever telemetry is on). [op_busy] is the time of the
   unit operations, [apps] the applications decided. *)
let strategy reg ~op_busy ~apps =
  let bind_n, bind_s = R.timer reg "strategy.bind" in
  let sched_n, sched_s = R.timer reg "strategy.static_order" in
  let slice_n, slice_s = R.timer reg "strategy.slice_alloc" in
  let bind_failed = R.counter reg "strategy.bind_failed" in
  let sched_failed = R.counter reg "strategy.schedule_failed" in
  let probes = R.counter reg "strategy.throughput_checks" in
  let attempts = R.counter reg "flow.attempts" in
  [
    Metric.v "binding_step.busy_s" "s" bind_s
      ~base:(Printf.sprintf "%.0f calls" bind_n);
    Metric.v "binding_step.calls" "count" bind_n;
    Metric.v "binding_step.fail_ratio" "ratio" (Util.ratio bind_failed bind_n)
      ~base:(Printf.sprintf "%.0f / %.0f" bind_failed bind_n);
    Metric.v "list_scheduler.busy_s" "s" sched_s
      ~base:(Printf.sprintf "%.0f calls, incl. the half-wheel build" sched_n);
    Metric.v "list_scheduler.fail_ratio" "ratio"
      (Util.ratio sched_failed sched_n)
      ~base:(Printf.sprintf "%.0f / %.0f" sched_failed sched_n);
    Metric.v "slice_alloc.busy_s" "s" slice_s
      ~base:(Printf.sprintf "%.0f calls" slice_n);
    Metric.v "slice_alloc.share" "ratio" (Util.ratio slice_s op_busy)
      ~base:(Printf.sprintf "%.4fs of %.4fs op time" slice_s op_busy);
    Metric.v "slice_alloc.probes" "count" probes;
    Metric.v "slice_alloc.probes_per_app" "count" (Util.ratio probes slice_n)
      ~base:(Printf.sprintf "%.0f probes / %.0f slice phases" probes slice_n);
    Metric.v "slice_alloc.us_per_probe" "us"
      (Util.ratio (slice_s *. 1e6) probes)
      ~base:(Printf.sprintf "%.4fs / %.0f probes" slice_s probes);
    Metric.v "flow.rungs_per_app" "count"
      (Util.ratio attempts (float_of_int apps))
      ~base:(Printf.sprintf "%.0f rungs / %d apps" attempts apps);
  ]

(* How late the benchmark started each operation: [gaps] in seconds. *)
let lag gaps =
  let a = Util.sorted gaps in
  let t = Util.tail a in
  [
    Metric.v "loadgen.lag_p99_ms" "ms" (Util.quantile a 0.99 *. 1e3)
      ~base:(Printf.sprintf "p99 of %d ops" t.Util.n);
    Metric.v "loadgen.lag_max_ms" "ms"
      ((if Array.length a = 0 then 0. else a.(Array.length a - 1)) *. 1e3)
      ~base:(Printf.sprintf "max of %d ops" t.Util.n);
  ]
