(* Replays for the layers the flow hides. [Slice_alloc] builds a
   binding-aware graph and explores it once per probe, internally; here
   each allocation's graph is rebuilt and re-explored with the memo off,
   at the half-wheel slices the list scheduler used and at the final
   slices, timing [Bind_aware.build] and [Constrained.analyze] apart,
   then once more with the memo on and warm, which times a memo hit.
   The self-timed engine and the XML reader are replayed on the
   workload's own graphs the same way. *)

module Strategy = Core.Strategy
module Appgraph = Appmodel.Appgraph

let without_memo f =
  let was = Analysis.Memo.enabled () in
  Analysis.Memo.set_enabled false;
  Fun.protect ~finally:(fun () -> Analysis.Memo.set_enabled was) f

type probes = {
  builds : int;
  build_times : float list;  (** seconds per build *)
  analyses : int;
  analyze_s : float;
  states : int;
  bytes_per_state : float;  (** states-weighted mean of the engine gauge *)
  hit_times : float list;  (** seconds per warm memo hit *)
}

let with_memo f =
  Analysis.Memo.set_enabled true;
  Fun.protect ~finally:(fun () -> Analysis.Memo.set_enabled false) f

let probes ~max_states (allocs : Strategy.allocation list) =
  without_memo @@ fun () ->
  let builds = ref [] and analyses = ref 0 and analyze_s = ref 0. in
  let states = ref 0 and bytes = ref 0. and hits = ref [] in
  List.iter
    (fun (a : Strategy.allocation) ->
      let app = a.Strategy.app and arch = a.Strategy.arch in
      let binding = a.Strategy.binding in
      List.iter
        (fun slices ->
          let ba, tb =
            Util.time (fun () ->
                Core.Bind_aware.build ~app ~arch ~binding ~slices ())
          in
          builds := tb :: !builds;
          match
            Util.time (fun () ->
                Core.Constrained.analyze ~max_states ba
                  ~schedules:a.Strategy.schedules)
          with
          | r, ta ->
              incr analyses;
              analyze_s := !analyze_s +. ta;
              let n = r.Core.Constrained.states in
              states := !states + n;
              let bps =
                Option.value ~default:0.
                  (Obs.Gauge.value "engine.bytes_per_state")
              in
              bytes := !bytes +. (bps *. float_of_int n)
          | exception
              ( Core.Constrained.Deadlocked
              | Core.Constrained.State_space_exceeded _ ) ->
              ())
        [ Core.Bind_aware.half_wheel_slices app arch binding; a.Strategy.slices ];
      with_memo (fun () ->
          let ba = Core.Bind_aware.build ~app ~arch ~binding ~slices:a.Strategy.slices () in
          let analyze () = Core.Constrained.analyze ~max_states ba ~schedules:a.Strategy.schedules in
          ignore (analyze ());
          hits := snd (Util.time analyze) :: !hits))
    allocs;
  {
    builds = List.length !builds;
    build_times = !builds;
    analyses = !analyses;
    analyze_s = !analyze_s;
    states = !states;
    bytes_per_state = Util.ratio !bytes (float_of_int !states);
    hit_times = !hits;
  }

(* Self-timed exploration of each graph under the interactive tier's
   200k-state cap: (graphs, states explored, seconds). *)
let selftimed (apps : Appgraph.t list) =
  without_memo @@ fun () ->
  List.fold_left
    (fun (n, states, secs) (app : Appgraph.t) ->
      let g = app.Appgraph.graph in
      let taus =
        Array.init (Sdf.Sdfg.num_actors g) (fun a -> Appgraph.max_exec_time app a)
      in
      let budget = Budget.make ~max_states:200_000 () in
      match
        Util.time (fun () -> Analysis.Selftimed.analyze_budgeted ~budget g taus)
      with
      | Ok r, t -> (n + 1, states + r.Analysis.Selftimed.states, secs +. t)
      | Error p, t -> (n + 1, states + p.Analysis.Selftimed.explored, secs +. t)
      | exception (Analysis.Selftimed.Deadlocked | Analysis.Selftimed.State_space_exceeded _) ->
          (n, states, secs))
    (0, 0, 0.) apps

(* Seconds per SDF3-XML parse of each graph's serialisation. *)
let xml_reads (apps : Appgraph.t list) =
  List.map
    (fun app ->
      let s = Appmodel.Sdf3_xml.app_to_string app in
      snd (Util.time (fun () -> ignore (Appmodel.Sdf3_xml.app_of_string s))))
    apps

(* Per-layer metrics common to every workload's replay. *)
let metrics ~probes:(p : probes) ~selftimed:(sn, sstates, ssecs) =
  let build_s = Util.sum p.build_times in
  let med_build = Util.median (Util.sorted p.build_times) in
  [
    Metric.v "bind_aware.build_us" "us" (med_build *. 1e6)
      ~base:(Printf.sprintf "median of %d replayed builds" p.builds);
    Metric.v "bind_aware.build_share" "ratio"
      (Util.ratio build_s (build_s +. p.analyze_s))
      ~base:
        (Printf.sprintf "%.4fs build / %.4fs build+explore" build_s
           (build_s +. p.analyze_s));
    Metric.v "constrained.states_per_probe" "states"
      (Util.ratio (float_of_int p.states) (float_of_int p.analyses))
      ~base:(Printf.sprintf "%d states / %d replayed probes" p.states p.analyses);
    Metric.v "constrained.states_per_s" "1/s"
      (Util.ratio (float_of_int p.states) p.analyze_s)
      ~base:(Printf.sprintf "%d states / %.4fs" p.states p.analyze_s);
    Metric.v "engine.bytes_per_state" "B" p.bytes_per_state
      ~base:(Printf.sprintf "states-weighted over %d probes" p.analyses);
    Metric.v "memo.lookup_us" "us" (Util.median (Util.sorted p.hit_times) *. 1e6)
      ~base:(Printf.sprintf "median of %d replayed warm hits, key included" (List.length p.hit_times));
    Metric.v "selftimed.states_per_s" "1/s"
      (Util.ratio (float_of_int sstates) ssecs)
      ~base:(Printf.sprintf "%d states / %.4fs over %d graphs" sstates ssecs sn);
  ]
