(* Analyze an SDFG from a text file: consistency, repetition vector,
   deadlock, self-timed throughput, HSDF size and MCR — the SDFG analysis
   toolbox of the library, packaged like SDF3's sdf3analysis tool. *)

module Sdfg = Sdf.Sdfg
module Rat = Sdf.Rat

(* XML application files carry Gamma; analyse with worst-case times. *)
let load file =
  if Filename.check_suffix file ".xml" then begin
    match Appmodel.Sdf3_xml.read_app_file file with
    | app ->
        let g = app.Appmodel.Appgraph.graph in
        let taus =
          Array.init (Sdfg.num_actors g) (fun a ->
              Appmodel.Appgraph.max_exec_time app a)
        in
        { Sdf.Textio.doc_name = app.Appmodel.Appgraph.app_name; graph = g;
          exec_times = Some taus }
    | exception Appmodel.Sdf3_xml.Error m ->
        Printf.eprintf "%s: %s\n" file m;
        exit 1
    | exception Sdf.Xml.Parse_error { position; message } ->
        Printf.eprintf "%s: offset %d: %s\n" file position message;
        exit 1
  end
  else
    match Sdf.Textio.parse_file file with
    | doc -> doc
    | exception Sdf.Textio.Parse_error { line; message } ->
        Printf.eprintf "%s:%d: %s\n" file line message;
        exit 1

let analyze_scenario graph taus path =
  match Scenario.Fsm.parse_file ~graph ~taus path with
  | exception Scenario.Fsm.Parse_error { line; message } ->
      if line > 0 then Printf.eprintf "%s:%d: %s\n" path line message
      else Printf.eprintf "%s: %s\n" path message;
      exit 1
  | fsm -> (
      Printf.printf "scenario %s: %d modes, %d transitions (initial %s)\n"
        fsm.Scenario.Fsm.name
        (Array.length fsm.Scenario.Fsm.modes)
        (Array.length fsm.Scenario.Fsm.transitions)
        fsm.Scenario.Fsm.modes.(fsm.Scenario.Fsm.initial).Scenario.Fsm.m_name;
      match
        Obs.Span.with_ "analyze.scenario" (fun () ->
            Scenario.Product.analyze fsm)
      with
      | r ->
          Printf.printf
            "scenario worst-case rate = %s iteration(s)/time unit\n"
            (Rat.to_string r.Scenario.Product.worst_rate);
          Printf.printf "scenario product: %d states, %d edges\n"
            r.Scenario.Product.product_states
            r.Scenario.Product.product_edges
      | exception Scenario.Product.Deadlocked ->
          Printf.printf "scenario DEADLOCKS (some mode sequence jams)\n";
          exit 3
      | exception Scenario.Product.State_space_exceeded n ->
          Printf.printf "scenario product state space exceeds %d states\n" n;
          exit 4)

let analyze file show_hsdf show_dot show_trace scenario log_level
    metrics_file metrics_stderr trace_file =
  Cli_common.setup_logs log_level;
  Cli_common.init_metrics ~trace:trace_file ~file:metrics_file
    ~to_stderr:metrics_stderr ();
  (match load file with
  | { Sdf.Textio.doc_name; graph; exec_times } -> (
      Printf.printf "graph %s: %d actors, %d channels\n" doc_name
        (Sdfg.num_actors graph) (Sdfg.num_channels graph);
      (match Sdf.Repetition.compute graph with
      | Sdf.Repetition.Inconsistent { channel } ->
          Printf.printf "INCONSISTENT (witness channel %s)\n"
            (Sdfg.channel_name graph channel);
          exit 2
      | Sdf.Repetition.Disconnected ->
          Printf.printf "NOT CONNECTED\n";
          exit 2
      | Sdf.Repetition.Consistent gamma -> (
          print_string "repetition vector:";
          Array.iteri
            (fun a v -> Printf.printf " %s=%d" (Sdfg.actor_name graph a) v)
            gamma;
          print_newline ();
          (match Sdf.Deadlock.check graph gamma with
          | Sdf.Deadlock.Deadlock_free -> print_endline "deadlock free"
          | Sdf.Deadlock.Deadlocked { blocked } ->
              Printf.printf "DEADLOCKS (blocked:%s)\n"
                (String.concat ","
                   (List.map (Sdfg.actor_name graph) blocked));
              exit 3);
          if show_hsdf then begin
            let h = Sdf.Hsdf.convert graph gamma in
            Printf.printf "hsdf: %d actors, %d channels\n"
              (Sdfg.num_actors h.Sdf.Hsdf.graph)
              (Sdfg.num_channels h.Sdf.Hsdf.graph)
          end;
          match exec_times with
          | None ->
              if scenario <> None then begin
                Printf.eprintf
                  "--scenario requires execution times in the graph file\n";
                exit 1
              end;
              print_endline
                "no execution times in file; skipping throughput analysis"
          | Some taus ->
              (match show_trace with
              | None -> ()
              | Some path ->
                  let t = Analysis.Trace.selftimed graph taus in
                  let oc = open_out path in
                  Fun.protect
                    ~finally:(fun () -> close_out oc)
                    (fun () ->
                      output_string oc
                        (Analysis.Trace.to_dot
                           ~actor_name:(Sdfg.actor_name graph) t));
                  Printf.printf "state-space trace written to %s\n" path);
              let r =
                Obs.Span.with_ "analyze.selftimed" (fun () ->
                    Analysis.Selftimed.analyze graph taus)
              in
              Array.iteri
                (fun a thr ->
                  Printf.printf "throughput %s = %s\n"
                    (Sdfg.actor_name graph a) (Rat.to_string thr))
                r.Analysis.Selftimed.throughput;
              Printf.printf
                "state space: %d states, transient %d, period %d\n"
                r.Analysis.Selftimed.states r.Analysis.Selftimed.transient
                r.Analysis.Selftimed.period;
              Printf.printf "periodic phase: %d iteration(s) per period\n"
                r.Analysis.Selftimed.iterations_per_period;
              let h =
                Obs.Span.with_ "analyze.hsdf_convert" (fun () ->
                    Sdf.Hsdf.convert graph gamma)
              in
              (match
                 Obs.Span.with_ "analyze.mcr" (fun () ->
                     Analysis.Mcr.max_cycle_ratio h.Sdf.Hsdf.graph
                       (Sdf.Hsdf.timing h taus))
               with
              | Analysis.Mcr.Ratio r ->
                  Printf.printf "hsdf max cycle ratio = %s\n" (Rat.to_string r)
              | Analysis.Mcr.Acyclic -> print_endline "hsdf: acyclic"
              | Analysis.Mcr.Zero_token_cycle _ ->
                  print_endline "hsdf: zero-token cycle");
              Option.iter (analyze_scenario graph taus) scenario));
      match show_dot with
      | None -> ()
      | Some path ->
          Sdf.Dot.write_file ?exec_times ~name:doc_name path graph;
          Printf.printf "dot written to %s\n" path));
  Cli_common.write_metrics ~trace:trace_file ~file:metrics_file
    ~to_stderr:metrics_stderr ()

open Cmdliner

let file =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"SDFG text file")

let hsdf = Arg.(value & flag & info [ "hsdf" ] ~doc:"Report the HSDF expansion size")

let dot =
  Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"OUT" ~doc:"Write a Graphviz rendering to $(docv)")

(* [--trace] is the shared Chrome-trace timeline (Cli_common.trace_file);
   the state-space trajectory dump lives under [--state-trace]. *)
let state_trace =
  Arg.(
    value
    & opt (some string) None
    & info [ "state-trace" ] ~docv:"OUT"
        ~doc:"Write the self-timed state-space trace (Fig.-5 style) to $(docv)")

let scenario =
  Arg.(
    value
    & opt (some file) None
    & info [ "scenario" ] ~docv:"FILE"
        ~doc:
          "Scenario FSM over the graph (text format, see lib/scenario):\n\
          \ modes with their own rates and execution times, transitions\n\
          \ with rebinding delays. Reports the worst-case throughput over\n\
          \ all scenario sequences by product-state-space exploration.\n\
          \ Requires execution times in $(i,FILE)'s base graph.")

let cmd =
  Cmd.v
    (Cmd.info "sdf3_analyze" ~doc:"Analyse a synchronous dataflow graph")
    Term.(
      const analyze $ file $ hsdf $ dot $ state_trace $ scenario
      $ Cli_common.log_level $ Cli_common.metrics_file
      $ Cli_common.metrics_stderr $ Cli_common.trace_file)

let () = exit (Cmd.eval cmd)
