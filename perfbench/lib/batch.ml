(* batch: the sdf3_batch path over a seeded SDF3-XML corpus. Per case:
   [Sdf3_xml.read_app_file], [Flow.allocate_with_retry] under a per-case
   state budget, [Journal.of_flow_result]; cases go through [Par.map] in
   chunks of the pool size, as sdf3_batch does; the seed sets the case
   order. The platform is a fresh mesh3x3 per pass and the memo is
   cleared at the start of each pass, so every case is new to it.

   Timed passes run at sdf3_batch's default of one job: at two jobs on a
   two-core host that other tenants share, any competing process takes a
   core from the pass, and two of four ten-run sets spread by 0.28-0.36.
   The traced run adds one pass at two jobs for the [Par] layer. *)

module Journal = Server.Journal

let jobs = 1
let par_jobs = 2
let cases_count = 240

(* Per-case budget: the standard tier's state cap. States, unlike a wall
   deadline, trip deterministically. *)
let case_max_states = 2_000_000

(* Program-side set-up: the pool size and the platform. *)
let setup () =
  Par.set_jobs jobs;
  ignore (Gen.Benchsets.architecture 0)

type case = {
  name : string;
  line : string;  (** the journal line *)
  result : Core.Flow.result option;  (** [None] when the case raised *)
  seconds : float;
}

let status line =
  match Obs.Json.parse line with
  | Ok j -> (
      match Obs.Json.member "status" j with Some (Obs.Json.String s) -> s | _ -> "?")
  | Error _ -> "?"

let failed c = match status c.line with "allocated" | "failed" -> false | _ -> true

let run_case ~dir ~arch name =
  let t0 = Util.now () in
  let line, result =
    Tracer.span "batch.case" @@ fun () ->
    match
      let app =
        Tracer.span "sdf3_xml.read_app_file" (fun () ->
            Appmodel.Sdf3_xml.read_app_file (Filename.concat dir name))
      in
      let budget = Budget.make ~max_states:case_max_states () in
      let r =
        Tracer.span "flow.allocate_with_retry" (fun () ->
            Core.Flow.allocate_with_retry ~budget app arch)
      in
      (Journal.to_line (Journal.of_flow_result ~case:name r), r)
    with
    | line, r -> (line, Some r)
    | exception e -> (Journal.to_line (Journal.error ~case:name (Printexc.to_string e)), None)
  in
  { name; line; result; seconds = Util.now () -. t0 }

let rec chunks n = function
  | [] -> []
  | xs ->
      let c = List.filteri (fun i _ -> i < n) xs in
      c :: chunks n (List.filteri (fun i _ -> i >= n) xs)

type pass = { wall : float; cases : case list }

let run_pass ~dir names =
  Analysis.Memo.clear_all ();
  let t0 = Util.now () in
  let arch = Gen.Benchsets.architecture 0 in
  let cases =
    List.concat_map (Par.map (run_case ~dir ~arch)) (chunks (Par.jobs ()) names)
  in
  { wall = Util.now () -. t0; cases }

let lines p = List.map (fun c -> c.line) p.cases

let allocations p =
  List.filter_map
    (fun c -> Option.bind c.result (fun r -> r.Core.Flow.allocation))
    p.cases

let run (t : Ctx.t) : Ctx.outcome =
  let dir = Filename.concat t.Ctx.workdir "corpus" in
  let names =
    Inputs.shuffle (Inputs.rng ~seed:t.Ctx.seed ~stream:240) (Inputs.corpus ~count:cases_count ~dir)
  in
  Par.set_worker_hook (fun i ->
      Obs.Trace.set_thread_name (Printf.sprintf "worker %d" (i + 1)));
  setup ();
  Fun.protect ~finally:(fun () -> Par.set_jobs 1) @@ fun () ->
  let first = run_pass ~dir names in
  let digest = Gate.digest (lines first) in
  let passes =
    if t.Ctx.trace then [ first ]
    else
      let rec more acc elapsed =
        if elapsed >= t.Ctx.seconds then List.rev acc
        else
          let p = run_pass ~dir names in
          if Gate.digest (lines p) <> digest then
            Util.incorrect "batch: pass journal differs from the first pass";
          more (p :: acc) (elapsed +. p.wall)
      in
      more [ first ] first.wall
  in
  let rss = Util.peak_rss_mb () in
  let layers, probe_failed =
    if not t.Ctx.trace then ([], 0)
    else begin
      (* The same corpus through sdf3_serve under open-loop load. *)
      let probe, probe_failed = Serve.probe t in
      let pair () =
        let untraced = run_pass ~dir names in
        if lines untraced <> lines first then
          Util.incorrect "batch: pass journal differs from the first pass";
        (* Each traced pass starts from an empty registry, so the layer
           metrics below describe the last one. *)
        Ctx.start_tracing ();
        let traced = run_pass ~dir names in
        Ctx.stop_tracing ();
        if lines traced <> lines first then
          Util.incorrect "batch: traced journal differs from the untraced one";
        (untraced.wall, traced)
      in
      let pairs = List.init Ctx.pairs (fun _ -> pair ()) in
      let traced = snd (List.nth pairs (Ctx.pairs - 1)) in
      let reg = Obs.snapshot_json () in
      (* The Par layer: the same pass on a pool of two. *)
      Par.set_jobs par_jobs;
      let par = run_pass ~dir names in
      Par.set_jobs jobs;
      if lines par <> lines first then
        Util.incorrect "batch: the %d-job journal differs from the 1-job one" par_jobs;
      let par_busy = Util.sum (List.map (fun c -> c.seconds) par.cases) in
      let one_job = Util.median (Util.sorted (List.map fst pairs)) in
      let events = Ctx.write_trace t ~name:(Printf.sprintf "batch-%d" t.Ctx.seed) in
      Printf.printf "trace: %d events validated\n" events;
      let case_busy = Tracer.busy "batch.case" in
      let reads, read_busy, _ = Tracer.get "sdf3_xml.read_app_file" in
      let apps = List.map (fun (a : Core.Strategy.allocation) -> a.Core.Strategy.app) (allocations first) in
      Obs.set_enabled true;
      let probes = Replay.probes ~max_states:case_max_states (allocations first) in
      Obs.set_enabled false;
      let selftimed = Replay.selftimed apps in
      ( Layers.strategy reg ~op_busy:case_busy ~apps:(List.length traced.cases)
      @ Replay.metrics ~probes ~selftimed
      @ Layers.memo reg @ Layers.engine reg
      @ [
          Metric.v "sdf3_xml.read_us" "us"
            (Util.ratio (read_busy *. 1e6) (float_of_int reads))
            ~base:(Printf.sprintf "mean of %d reads" reads);
          Metric.v "par.utilisation" "ratio"
            (Util.ratio par_busy (float_of_int par_jobs *. par.wall))
            ~base:
              (Printf.sprintf "%.4fs case time / (%d jobs x %.4fs)" par_busy par_jobs par.wall);
          Metric.v "par.speedup" "ratio" (Util.ratio one_job par.wall)
            ~base:(Printf.sprintf "1-job pass %.4fs / %d-job pass %.4fs" one_job par_jobs par.wall);
        ]
      @ probe
      @ Ctx.tracing_metrics ~op:"batch.case" ~ops:(List.length traced.cases)
          ~walls:(List.map (fun (u, (t : pass)) -> (u, t.wall)) pairs),
        probe_failed )
    end
  in
  let allocs = allocations first in
  let checked = Gate.check_all ~max_states:case_max_states allocs in
  Printf.printf "gate: %d allocations verified, digest %s\n" checked digest;
  Gate.pin ~dir:(Ctx.digest_dir t) ~key:(Printf.sprintf "batch-%d" t.Ctx.seed) digest;
  let all = List.concat_map (fun p -> p.cases) passes in
  let wall = Util.sum (List.map (fun p -> p.wall) passes) in
  let times = Util.sorted (List.map (fun c -> c.seconds) all) in
  let tail, tail_base =
    Util.pass_tail (List.map (fun p -> List.map (fun c -> c.seconds) p.cases) passes)
  in
  let ops = List.length all in
  let failed = List.length (List.filter failed all) + probe_failed in
  {
    Ctx.end_to_end =
      [
        Metric.v "peak_rss_mb" "MiB" rss;
        Metric.v "apps_per_s" "1/s"
          (Util.median_rate (List.map (fun p -> (List.length p.cases, p.wall)) passes))
          ~base:(Printf.sprintf "%d cases in %.3fs; median of %d passes" ops wall
                   (List.length passes));
        Metric.v "op_p50_ms" "ms" (Util.median times *. 1e3)
          ~base:(Printf.sprintf "%d cases" ops);
        Metric.v "op_tail_ms" "ms" (tail *. 1e3) ~base:tail_base;
        Metric.v "apps_bound" "count" (float_of_int (List.length allocs))
          ~base:(Printf.sprintf "allocated per pass of %d cases" cases_count);
        Metric.v "ok_ratio" "ratio"
          (1. -. Util.ratio (float_of_int failed) (float_of_int ops))
          ~base:(Printf.sprintf "%d failed / %d cases; fail_ratio %.4f" failed ops
                   (Util.ratio (float_of_int failed) (float_of_int ops)));
      ];
    layers;
    attempted = ops;
    failed;
  }
