(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (E1-E13, see DESIGN.md) and times the key analysis and
   allocation kernels with Bechamel — one Test.make per table/figure group.

   Usage:
     dune exec bench/main.exe             # the paper's full 3 x 3 protocol
     dune exec bench/main.exe -- --quick  # 1 sequence x 1 architecture
     dune exec bench/main.exe -- --no-bechamel  # tables only
     dune exec bench/main.exe -- --jobs N # fan the independent table cells
                                          # out over N domains (0 = number
                                          # of cores); tables identical
     dune exec bench/main.exe -- --metrics FILE # export the telemetry
                                                # registry of the table runs
                                                # as JSON (correlates wall
                                                # clock with states explored)
     dune exec bench/main.exe -- --trace FILE # export a Chrome trace-event
                                                # timeline of the table runs
     dune exec bench/main.exe -- --explore-bench FILE # seed-vs-new state-
                                                # space engine comparison on
                                                # the E8-E10 grid, written
                                                # as JSON (BENCH_4.json) *)

open Bechamel
open Bechamel.Toolkit

module Models = Appmodel.Models

(* --------------------------- Bechamel timers ----------------------- *)

(* One micro-benchmark per experiment group, measuring its computational
   kernel on a fixed workload. *)
let bechamel_tests () =
  let example_app = Models.example_app () in
  let example_arch = Models.example_platform () in
  let binding = [| 0; 0; 1 |] in
  let ba =
    Core.Bind_aware.build ~app:example_app ~arch:example_arch ~binding
      ~slices:[| 5; 5 |] ()
  in
  let schedules =
    [|
      Some (Core.Schedule.make ~prefix:[] ~period:[ 0; 1 ]);
      Some (Core.Schedule.make ~prefix:[] ~period:[ 2 ]);
    |]
  in
  let h263 = Models.h263 () in
  let h263_gamma = Appmodel.Appgraph.gamma h263 in
  let h263_taus =
    Array.init 4 (fun a -> Appmodel.Appgraph.max_exec_time h263 a)
  in
  let bench_app = List.hd (Gen.Benchsets.sequence ~set:4 ~seq:0 ~count:1) in
  let bench_arch = Gen.Benchsets.architecture 0 in
  [
    (* E1: the two throughput-analysis routes. *)
    Test.make ~name:"E1-selftimed-h263"
      (Staged.stage (fun () ->
           Analysis.Selftimed.analyze h263.Appmodel.Appgraph.graph h263_taus));
    Test.make ~name:"E1-hsdf-convert-h263"
      (Staged.stage (fun () ->
           Sdf.Hsdf.convert h263.Appmodel.Appgraph.graph h263_gamma));
    (* E5: the constrained state-space exploration. *)
    Test.make ~name:"E5-constrained-example"
      (Staged.stage (fun () -> Core.Constrained.analyze ba ~schedules));
    (* E6: schedule construction. *)
    Test.make ~name:"E6-list-scheduler"
      (Staged.stage (fun () -> Core.List_scheduler.schedules ba));
    (* E7: one binding step. *)
    Test.make ~name:"E7-binding-step"
      (Staged.stage (fun () ->
           Core.Binding_step.bind
             ~weights:(Core.Cost.weights 1. 1. 1.)
             example_app example_arch));
    (* E8: one full strategy run on a generated graph. *)
    Test.make ~name:"E8-strategy-generated"
      (Staged.stage (fun () ->
           Core.Strategy.allocate ~max_states:200_000
             ~weights:(Core.Cost.weights 0. 1. 2.)
             bench_app bench_arch));
    (* E9/E10 share E8's kernel; E11's kernel at example scale: *)
    Test.make ~name:"E11-slice-allocation"
      (Staged.stage (fun () ->
           let scheds = Core.List_scheduler.schedules ba in
           Core.Slice_alloc.allocate example_app example_arch binding scheds));
    (* E12: MCR on a mid-size expansion. *)
    Test.make ~name:"E12-mcr-expanded"
      (Staged.stage
         (let g =
            Sdf.Sdfg.of_lists ~actors:[ "a"; "b"; "c" ]
              ~channels:
                [ ("a", "b", 50, 1, 0); ("b", "c", 1, 50, 0); ("c", "a", 1, 1, 1) ]
          in
          let gamma = Sdf.Repetition.vector_exn g in
          let h = Sdf.Hsdf.convert g gamma in
          let taus = Sdf.Hsdf.timing h [| 9; 2; 7 |] in
          fun () -> Analysis.Mcr.max_cycle_ratio h.Sdf.Hsdf.graph taus));
    (* E13: the inflation-model analysis. *)
    Test.make ~name:"E13-tdma-inflation"
      (Staged.stage (fun () -> Core.Tdma_inflation.throughput ba ~schedules));
  ]

let run_bechamel () =
  Tables.section "TIMERS" "Bechamel micro-benchmarks (ns per run, OLS fit)";
  let tests = Test.make_grouped ~name:"sdfalloc" (bechamel_tests ()) in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (v :: _) -> v
          | _ -> Float.nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort compare
  in
  Printf.printf "%-36s %16s\n" "benchmark" "time per run";
  List.iter
    (fun (name, ns) ->
      let human =
        if Float.is_nan ns then "n/a"
        else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
        else Printf.sprintf "%.0f ns" ns
      in
      Printf.printf "%-36s %16s\n" name human)
    rows

(* ------------------ exploration engine microbenchmark --------------- *)

(* Seed-vs-new comparison of the state-space kernels on the E8-E10
   workload grid (benchmark sets 1-4, all three sequences): the packed
   engine ([Selftimed.analyze] / [Constrained.analyze], memoization off)
   against the retained Marshal/Hashtbl references kept as
   [analyze_reference]. Reports states per second on each side, packed
   bytes per state on the engine side, and the resulting speedup; the JSON
   written here is committed as BENCH_4.json. *)

module Sdfg = Sdf.Sdfg
module Appgraph = Appmodel.Appgraph

let explore_max_states = 200_000

let selftimed_cases set =
  List.concat_map
    (fun seq ->
      Gen.Benchsets.sequence ~set ~seq ~count:40
      |> List.filter_map (fun (app : Appgraph.t) ->
             let g = app.Appgraph.graph in
             let taus =
               Array.init (Sdfg.num_actors g) (fun a ->
                   Appgraph.max_exec_time app a)
             in
             (* Keep the cases both engines complete: a deadlock or cap
                abort times exception unwinding, not exploration. *)
             match
               Analysis.Selftimed.analyze_reference
                 ~max_states:explore_max_states g taus
             with
             | (_ : Analysis.Selftimed.result) -> Some (g, taus)
             | exception Analysis.Selftimed.Deadlocked -> None
             | exception Analysis.Selftimed.State_space_exceeded _ -> None))
    [ 0; 1; 2 ]

(* Timed passes over a whole case list (repeated so each measurement spans
   tens of milliseconds); states are taken from the results so both
   engines are required to agree on the work done. *)
let explore_reps = 10

let sweep analyze cases =
  let states = ref 0 in
  (* Start from a compacted heap so a major GC triggered by the previous
     sweep's garbage is not billed to this one. *)
  Gc.compact ();
  let t0 = Unix.gettimeofday () in
  for _ = 1 to explore_reps do
    List.iter
      (fun (g, taus) ->
        let r = analyze ~max_states:explore_max_states g taus in
        states := !states + r.Analysis.Selftimed.states)
      cases
  done;
  (!states, Unix.gettimeofday () -. t0)

let arena_bytes () =
  match Obs.Gauge.value "engine.arena_bytes" with
  | Some b -> b
  | None -> 0.

let constrained_workloads () =
  (* One bindable application per benchmark set, bound and list-scheduled
     the way the allocation flow does it. *)
  let arch = Gen.Benchsets.architecture 0 in
  List.filter_map
    (fun set ->
      Gen.Benchsets.sequence ~set ~seq:0 ~count:10
      |> List.find_map (fun app ->
             match
               Core.Binding_step.bind
                 ~weights:(Core.Cost.weights 0. 1. 2.)
                 app arch
             with
             | Error _ -> None
             | Ok binding -> (
                 let slices =
                   Core.Bind_aware.half_wheel_slices app arch binding
                 in
                 let ba = Core.Bind_aware.build ~app ~arch ~binding ~slices () in
                 match
                   Core.List_scheduler.schedules
                     ~max_states:explore_max_states ba
                 with
                 | schedules -> (
                     match
                       Core.Constrained.analyze_reference
                         ~max_states:explore_max_states ba ~schedules
                     with
                     | (_ : Core.Constrained.result) -> Some (ba, schedules)
                     | exception _ -> None)
                 | exception _ -> None)))
    [ 1; 2; 3; 4 ]

let sweep_constrained analyze workloads =
  let states = ref 0 in
  Gc.compact ();
  let t0 = Unix.gettimeofday () in
  for _ = 1 to explore_reps do
    List.iter
      (fun (ba, schedules) ->
        let r = analyze ~max_states:explore_max_states ba ~schedules in
        states := !states + r.Core.Constrained.states)
      workloads
  done;
  (!states, Unix.gettimeofday () -. t0)

(* The list scheduler against its pre-engine reference
   ([Check.List_scheduler_reference]) on the paper's multimedia models,
   bound with the Section-10.3 weights and list-scheduled at half-wheel
   slices as the flow does. Neither side reports a state count, so the
   row counts calls. *)
let list_scheduler_workloads () =
  let arch = Appmodel.Models.multimedia_platform () in
  List.filter_map
    (fun app ->
      match
        Core.Binding_step.bind ~weights:(Core.Cost.weights 2. 0. 1.) app arch
      with
      | Error _ -> None
      | Ok binding ->
          let slices = Core.Bind_aware.half_wheel_slices app arch binding in
          Some (Core.Bind_aware.build ~app ~arch ~binding ~slices ()))
    [ Appmodel.Models.h263 (); Appmodel.Models.mp3 () ]

let sweep_list_scheduler run workloads =
  Gc.compact ();
  let t0 = Unix.gettimeofday () in
  for _ = 1 to explore_reps do
    List.iter
      (fun ba -> ignore (run ~max_states:explore_max_states ba))
      workloads
  done;
  (explore_reps * List.length workloads, Unix.gettimeofday () -. t0)

let explore_bench path =
  Analysis.Memo.set_enabled false;
  Obs.set_enabled true;
  let per_sec states dt = float_of_int states /. Float.max dt 1e-9 in
  Printf.printf
    "Exploration engine microbenchmark (E8-E10 grid, max_states %d)\n\
     %-12s %8s %10s %14s %14s %10s %8s\n"
    explore_max_states "workload" "cases" "states" "ref st/s" "engine st/s"
    "bytes/st" "speedup";
  let row name cases ref_states ref_dt eng_states eng_dt bytes_per_state =
    let speedup = per_sec eng_states eng_dt /. per_sec ref_states ref_dt in
    Printf.printf "%-12s %8d %10d %14.0f %14.0f %10.1f %7.2fx\n%!" name cases
      eng_states (per_sec ref_states ref_dt) (per_sec eng_states eng_dt)
      bytes_per_state speedup;
    Obs.Json.(
      ( name,
        Assoc
          [
            ("cases", Int cases);
            ("states", Int eng_states);
            ( "reference",
              Assoc
                [
                  ("seconds", Float ref_dt);
                  ("states_per_sec", Float (per_sec ref_states ref_dt));
                ] );
            ( "engine",
              Assoc
                [
                  ("seconds", Float eng_dt);
                  ("states_per_sec", Float (per_sec eng_states eng_dt));
                  ("bytes_per_state", Float bytes_per_state);
                ] );
            ("speedup", Float speedup);
          ] ))
  in
  let tot_ref_states = ref 0
  and tot_ref_dt = ref 0.
  and tot_eng_states = ref 0
  and tot_eng_dt = ref 0.
  and tot_bytes = ref 0.
  and tot_cases = ref 0 in
  let selftimed_rows =
    List.map
      (fun set ->
        let cases = selftimed_cases set in
        (* The filtering pass above doubles as a warm-up of both the
           allocator and the generated workload. *)
        let ref_states, ref_dt =
          sweep
            (fun ~max_states g taus ->
              Analysis.Selftimed.analyze_reference ~max_states g taus)
            cases
        in
        let bytes = ref 0. in
        let eng_states, eng_dt =
          sweep
            (fun ~max_states g taus ->
              let r = Analysis.Selftimed.analyze ~max_states g taus in
              bytes := !bytes +. arena_bytes ();
              r)
            cases
        in
        tot_ref_states := !tot_ref_states + ref_states;
        tot_ref_dt := !tot_ref_dt +. ref_dt;
        tot_eng_states := !tot_eng_states + eng_states;
        tot_eng_dt := !tot_eng_dt +. eng_dt;
        tot_bytes := !tot_bytes +. !bytes;
        tot_cases := !tot_cases + List.length cases;
        row
          (Printf.sprintf "set%d" set)
          (List.length cases) ref_states ref_dt eng_states eng_dt
          (!bytes /. Float.max (float_of_int eng_states) 1.))
      [ 1; 2; 3; 4 ]
  in
  let overall =
    row "selftimed" !tot_cases !tot_ref_states !tot_ref_dt !tot_eng_states
      !tot_eng_dt
      (!tot_bytes /. Float.max (float_of_int !tot_eng_states) 1.)
  in
  let constrained =
    let workloads = constrained_workloads () in
    let ref_states, ref_dt =
      sweep_constrained
        (fun ~max_states ba ~schedules ->
          Core.Constrained.analyze_reference ~max_states ba ~schedules)
        workloads
    in
    let bytes = ref 0. in
    let eng_states, eng_dt =
      sweep_constrained
        (fun ~max_states ba ~schedules ->
          let r = Core.Constrained.analyze ~max_states ba ~schedules in
          bytes := !bytes +. arena_bytes ();
          r)
        workloads
    in
    row "constrained" (List.length workloads) ref_states ref_dt eng_states
      eng_dt
      (!bytes /. Float.max (float_of_int eng_states) 1.)
  in
  let list_scheduler =
    let workloads = list_scheduler_workloads () in
    let calls, ref_dt =
      sweep_list_scheduler
        (fun ~max_states ba -> Check.List_scheduler_reference.run ~max_states ba)
        workloads
    in
    let _, eng_dt =
      sweep_list_scheduler
        (fun ~max_states ba -> Core.List_scheduler.run ~max_states ba)
        workloads
    in
    let speedup = ref_dt /. Float.max eng_dt 1e-9 in
    Printf.printf "%-12s %8d %10d %14.1f %14.1f %10s %7.2fx  (calls/s)\n%!"
      "list_sched" (List.length workloads) calls (per_sec calls ref_dt)
      (per_sec calls eng_dt) "-" speedup;
    Obs.Json.(
      Assoc
        [
          ("cases", Int (List.length workloads));
          ("calls", Int calls);
          ( "reference",
            Assoc
              [
                ("seconds", Float ref_dt);
                ("calls_per_sec", Float (per_sec calls ref_dt));
              ] );
          ( "engine",
            Assoc
              [
                ("seconds", Float eng_dt);
                ("calls_per_sec", Float (per_sec calls eng_dt));
              ] );
          ("speedup", Float speedup);
        ])
  in
  let doc =
    Obs.Json.(
      Assoc
        [
          ("bench", String "engine-explore");
          ("grid", String "E8-E10 sets 1-4, sequences 0-2, 40 apps each");
          ("reps", Int explore_reps);
          ("max_states", Int explore_max_states);
          ("selftimed", Assoc selftimed_rows);
          ("overall", Assoc [ overall; constrained ]);
          ("list_scheduler", list_scheduler);
        ])
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Obs.Json.to_string doc));
  Printf.printf "exploration benchmark written to %s\n" path

(* ------------------------------- main ------------------------------ *)

let () =
  let argv = Array.to_list Sys.argv in
  let quick = List.mem "--quick" argv in
  let with_bechamel = not (List.mem "--no-bechamel" argv) in
  let metrics_file =
    let rec find = function
      | "--metrics" :: path :: _ -> Some path
      | _ :: rest -> find rest
      | [] -> None
    in
    find argv
  in
  let trace_file =
    let rec find = function
      | "--trace" :: path :: _ -> Some path
      | _ :: rest -> find rest
      | [] -> None
    in
    find argv
  in
  let jobs =
    let rec find = function
      | "--jobs" :: n :: _ -> (
          match int_of_string_opt n with
          | Some n -> n
          | None ->
              Printf.eprintf "--jobs expects an integer, got %S\n" n;
              exit 2)
      | _ :: rest -> find rest
      | [] -> 1
    in
    find argv
  in
  (match
     let rec find = function
       | "--explore-bench" :: path :: _ -> Some path
       | _ :: rest -> find rest
       | [] -> None
     in
     find argv
   with
  | Some path ->
      (* Standalone mode: only the seed-vs-new engine comparison. *)
      explore_bench path;
      exit 0
  | None -> ());
  if trace_file <> None then
    Par.set_worker_hook (fun i ->
        Obs.Trace.set_thread_name (Printf.sprintf "worker %d" (i + 1)));
  Par.set_jobs jobs;
  if metrics_file <> None || trace_file <> None then Obs.set_enabled true;
  if trace_file <> None then begin
    Obs.Trace.set_thread_name "main";
    Obs.Trace.start ()
  end;
  let seqs = if quick then [ 0 ] else [ 0; 1; 2 ] in
  let archs = if quick then [ 0 ] else [ 0; 1; 2 ] in
  Printf.printf
    "Reproduction harness: Stuijk et al., 'Multiprocessor Resource \
     Allocation\nfor Throughput-Constrained Synchronous Dataflow Graphs', \
     DAC 2007.\nScale: %d sequence(s) x %d architecture(s)%s\n"
    (List.length seqs) (List.length archs)
    (if quick then " (--quick)" else " (the paper's full protocol)");
  Tables.e2_e3_example_models ();
  Tables.e4_binding_aware ();
  Tables.e5_statespaces ();
  Tables.e6_list_scheduler ();
  Tables.e7_table3 ();
  Tables.e1_h263_hsdf ();
  Tables.e12_baseline_sweep ();
  Tables.e21_hsdf_allocation ();
  Tables.e13_tdma_ablation ();
  Tables.e14_protocol_improvements ();
  Tables.e15_buffer_tradeoff ();
  Tables.e16_connection_models ();
  Tables.e17_sync_models ();
  Tables.e18_dimensioning ();
  Tables.e19_csdf_lumping ();
  Tables.e20_criticality_validation ();
  Tables.e22_guarantee_validation ();
  Tables.e23_composition ();
  Tables.e24_scenario ();
  Tables.e11_multimedia ();
  Tables.e8_e9_e10 ~seqs ~archs ();
  (match metrics_file with
  | None -> ()
  | Some path ->
      (* [Par] is dependency-free; copy the pool's totals into counters so
         they appear in the exported registry. *)
      Obs.Counter.add "pool.jobs" (Par.jobs ());
      Obs.Counter.add "pool.tasks" (Par.tasks_executed ());
      Obs.Counter.add "pool.batches" (Par.batches_executed ());
      let oc = open_out path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Obs.write_channel oc);
      Printf.printf "\ntelemetry registry of the table runs written to %s\n" path);
  (match trace_file with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> Obs.Trace.write_channel oc);
      Printf.printf "timeline trace of the table runs written to %s\n" path);
  (* The micro-benchmarks below must time the kernels with telemetry off,
     the configuration whose overhead we guarantee (< 2%). *)
  if metrics_file <> None || trace_file <> None then Obs.set_enabled false;
  if with_bechamel then begin
    (* The micro-benchmarks time the real analysis kernels: with the memo
       tables warm from the table runs every iteration after the first
       would be a lookup, so memoization is switched off here. *)
    Analysis.Memo.set_enabled false;
    run_bechamel ()
  end;
  print_newline ()
