(* Paper-table reproduction harness: regenerates every table and figure
   of the paper's evaluation (E1-E24, see DESIGN.md). Timing is not done
   here: perfbench/ is the benchmark of record.

   Usage:
     dune exec bench/main.exe             # the paper's full 3 x 3 protocol
     dune exec bench/main.exe -- --quick  # 1 sequence x 1 architecture
     dune exec bench/main.exe -- --jobs N # fan the independent table cells
                                          # out over N domains (0 = number
                                          # of cores); tables identical
     dune exec bench/main.exe -- --metrics FILE # export the telemetry
                                                # registry of the table runs
                                                # as JSON (correlates wall
                                                # clock with states explored)
     dune exec bench/main.exe -- --trace FILE # export a Chrome trace-event
                                                # timeline of the table runs

   Any other argument, or a flag missing its value, exits 2 with the
   usage. *)

let usage =
  "usage: main.exe [--quick] [--jobs N] [--metrics FILE] [--trace FILE]"

let bad_usage fmt =
  Printf.ksprintf (fun msg -> prerr_endline (msg ^ "\n" ^ usage); exit 2) fmt

type options = {
  quick : bool;
  jobs : int;
  metrics_file : string option;
  trace_file : string option;
}

let rec parse o = function
  | [] -> o
  | (("--jobs" | "--metrics" | "--trace") as flag) :: rest
    when match rest with
         | [] -> true
         | v :: _ -> String.starts_with ~prefix:"--" v ->
      bad_usage "%s expects a value" flag
  | "--quick" :: rest -> parse { o with quick = true } rest
  | "--jobs" :: n :: rest -> (
      match int_of_string_opt n with
      | Some jobs -> parse { o with jobs } rest
      | None -> bad_usage "--jobs expects an integer, got %S" n)
  | "--metrics" :: path :: rest -> parse { o with metrics_file = Some path } rest
  | "--trace" :: path :: rest -> parse { o with trace_file = Some path } rest
  | arg :: _ -> bad_usage "unknown argument %S" arg

(* ------------------------------- main ------------------------------ *)

let () =
  let { quick; jobs; metrics_file; trace_file } =
    parse
      { quick = false; jobs = 1; metrics_file = None; trace_file = None }
      (List.tl (Array.to_list Sys.argv))
  in
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
  print_newline ()
