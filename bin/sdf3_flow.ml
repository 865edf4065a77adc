(* The complete resource-allocation flow (paper Section 9) from the command
   line: allocate a list of applications onto a platform and report
   bindings, schedules, slices and achieved throughput. *)

module Appgraph = Appmodel.Appgraph
module Tile = Platform.Tile
module Archgraph = Platform.Archgraph

let parse_apps spec =
  String.split_on_char ',' spec
  |> List.filter (fun s -> s <> "")
  |> List.mapi (fun i name ->
         match name with
         | "example" -> Appmodel.Models.example_app ()
         | "h263" -> Appmodel.Models.h263 ~name:(Printf.sprintf "h263_%d" i) ()
         | "mp3" -> Appmodel.Models.mp3 ~name:(Printf.sprintf "mp3_%d" i) ()
         | "jpeg" -> Appmodel.Models.jpeg ~name:(Printf.sprintf "jpeg_%d" i) ()
         | "wlan" -> Appmodel.Models.wlan ~name:(Printf.sprintf "wlan_%d" i) ()
         | s ->
             Printf.eprintf
               "unknown application %S (try example, h263, mp3, jpeg, wlan)\n" s;
             exit 1)

let parse_platform = function
  | "example" -> Appmodel.Models.example_platform ()
  | "multimedia" -> Appmodel.Models.multimedia_platform ()
  | "mesh3x3" -> Gen.Benchsets.architecture 0
  | s ->
      Printf.eprintf "unknown platform %S (try example, multimedia, mesh3x3)\n" s;
      exit 1

let parse_weights s =
  match String.split_on_char ',' s |> List.map float_of_string_opt with
  | [ Some c1; Some c2; Some c3 ] -> Core.Cost.weights c1 c2 c3
  | _ ->
      Printf.eprintf "weights must be three comma-separated numbers\n";
      exit 1

open Core

(* Necessary-condition gate: even a perfect allocation cannot beat the
   scenario worst case, so an application whose worst-case output rate
   (over all mode sequences, with worst-case execution times) already
   misses lambda is excluded before any binding work is spent. The gate
   is conservative the other way — passing it does not promise the
   allocated (slice-throttled) graph meets lambda; the flow still
   verifies that per allocation. *)
let scenario_gate path apps =
  List.filter
    (fun (app : Appgraph.t) ->
      let g = app.Appgraph.graph in
      let taus =
        Array.init (Sdf.Sdfg.num_actors g) (fun a ->
            Appgraph.max_exec_time app a)
      in
      match Scenario.Fsm.parse_file ~graph:g ~taus path with
      | exception Scenario.Fsm.Parse_error { line; message } ->
          if line > 0 then Printf.eprintf "%s:%d: %s\n" path line message
          else
            Printf.eprintf "%s (%s): %s\n" path app.Appgraph.app_name message;
          exit 1
      | fsm -> (
          match
            Obs.Span.with_ "flow.scenario_gate" (fun () ->
                Scenario.Product.analyze fsm)
          with
          | exception Scenario.Product.Deadlocked ->
              Printf.printf
                "%s: excluded by scenario gate (a mode sequence deadlocks)\n"
                app.Appgraph.app_name;
              false
          | exception Scenario.Product.State_space_exceeded _ ->
              Printf.printf
                "%s: scenario gate inconclusive (state cap); keeping\n"
                app.Appgraph.app_name;
              true
          | r ->
              let rate = r.Scenario.Product.worst_rate in
              if Sdf.Rat.is_infinite rate then true
              else begin
                (* Worst-case firings of the output actor per time unit:
                   the product rate is in iterations, the slowest mode
                   bounds the output firings one iteration yields. *)
                let out = app.Appgraph.output_actor in
                let gmin =
                  Array.fold_left
                    (fun acc gamma -> min acc gamma.(out))
                    max_int fsm.Scenario.Fsm.gamma
                in
                let out_rate = Sdf.Rat.mul_int rate gmin in
                if Sdf.Rat.compare out_rate app.Appgraph.lambda >= 0 then true
                else begin
                  Printf.printf
                    "%s: excluded by scenario gate (worst-case output rate \
                     %s < lambda %s)\n"
                    app.Appgraph.app_name
                    (Sdf.Rat.to_string out_rate)
                    (Sdf.Rat.to_string app.Appgraph.lambda);
                  false
                end
              end))
    apps

let flow apps_spec files set count platform_spec weights_spec verbose skip
    ordering scenario deploy gantt log_level metrics_file metrics_stderr
    trace_file =
  Cli_common.setup_logs log_level;
  Cli_common.init_metrics ~trace:trace_file ~file:metrics_file
    ~to_stderr:metrics_stderr ();
  let arch = parse_platform platform_spec in
  let apps =
    match (files, set) with
    | _ :: _, _ ->
        List.map
          (fun path ->
            try Appmodel.Sdf3_xml.read_app_file path with
            | Appmodel.Sdf3_xml.Error m ->
                Printf.eprintf "%s: %s\n" path m;
                exit 1
            | Sdf.Xml.Parse_error { position; message } ->
                Printf.eprintf "%s: offset %d: %s\n" path position message;
                exit 1)
          files
    | [], Some set -> Gen.Benchsets.sequence ~set ~seq:0 ~count
    | [], None -> parse_apps apps_spec
  in
  let apps =
    match scenario with None -> apps | Some path -> scenario_gate path apps
  in
  let weights = parse_weights weights_spec in
  let policy =
    if skip then Multi_app.Skip_failed else Multi_app.Stop_at_first_failure
  in
  let report =
    Multi_app.allocate_until_failure ~weights ~policy ~order:ordering apps arch
  in
  let bound = List.length report.Multi_app.allocations in
  Printf.printf "%d of %d applications allocated\n" bound (List.length apps);
  List.iter
    (fun (a : Strategy.allocation) ->
      let app = a.Strategy.app in
      Printf.printf "\n== %s (lambda %s) ==\n" app.Appgraph.app_name
        (Sdf.Rat.to_string app.Appgraph.lambda);
      Printf.printf "throughput %s after %d throughput checks\n"
        (Sdf.Rat.to_string a.Strategy.throughput)
        a.Strategy.stats.Strategy.throughput_checks;
      Array.iteri
        (fun actor tile ->
          Printf.printf "  %s -> %s\n"
            (Sdf.Sdfg.actor_name app.Appgraph.graph actor)
            (Archgraph.tile arch tile).Tile.t_name)
        a.Strategy.binding;
      Array.iteri
        (fun t omega ->
          if omega > 0 then begin
            Printf.printf "  %s: slice %d/%d"
              (Archgraph.tile arch t).Tile.t_name omega
              (Archgraph.tile arch t).Tile.wheel;
            (if verbose then
               match a.Strategy.schedules.(t) with
               | Some s ->
                   Printf.printf ", order %s"
                     (Format.asprintf "%a"
                        (Schedule.pp (fun ppf actor ->
                             Format.pp_print_string ppf
                               (Sdf.Sdfg.actor_name app.Appgraph.graph actor)))
                        s)
               | None -> ());
            print_newline ()
          end)
        a.Strategy.slices)
    report.Multi_app.allocations;
  (if gantt then
     List.iter
       (fun (a : Strategy.allocation) ->
         let ba =
           Bind_aware.build ~app:a.Strategy.app ~arch:a.Strategy.arch
             ~binding:a.Strategy.binding ~slices:a.Strategy.slices ()
         in
         let view =
           Gantt.capture ~horizon:72 ba ~schedules:a.Strategy.schedules
         in
         Printf.printf "\n-- %s --\n%s"
           a.Strategy.app.Appgraph.app_name (Gantt.render view))
       report.Multi_app.allocations);
  (match deploy with
  | None -> ()
  | Some dir ->
      List.iter
        (fun (a : Strategy.allocation) ->
          let path =
            Filename.concat dir
              (a.Strategy.app.Appgraph.app_name ^ ".deploy.xml")
          in
          Deployment.write_file path a;
          Printf.printf "deployment descriptor written to %s\n" path)
        report.Multi_app.allocations);
  (match report.Multi_app.first_failure with
  | None -> ()
  | Some f ->
      Printf.printf "\nstopped: %s\n"
        (Format.asprintf "%a" Strategy.pp_failure f));
  Printf.printf
    "\nresources committed: wheel %d, memory %d bits, %d connections, bw in \
     %d out %d\n"
    report.Multi_app.wheel_used report.Multi_app.memory_used
    report.Multi_app.connections_used report.Multi_app.bw_in_used
    report.Multi_app.bw_out_used;
  Cli_common.write_metrics ~trace:trace_file ~file:metrics_file
    ~to_stderr:metrics_stderr ()

open Cmdliner

let apps =
  Arg.(
    value
    & opt string "h263,h263,h263,mp3"
    & info [ "apps" ] ~docv:"LIST"
        ~doc:"Comma-separated applications (example, h263, mp3)")

let files =
  Arg.(
    value
    & opt_all file []
    & info [ "file" ] ~docv:"FILE"
        ~doc:"Load an application graph from an SDF3-style XML file \
              (repeatable); overrides --apps/--set")

let set =
  Arg.(
    value
    & opt (some int) None
    & info [ "set" ] ~docv:"N"
        ~doc:"Use generated benchmark set $(docv) (1..4) instead of --apps")

let count = Arg.(value & opt int 10 & info [ "count"; "n" ] ~doc:"Graphs when using --set")

let platform =
  Arg.(
    value
    & opt string "multimedia"
    & info [ "platform" ] ~docv:"NAME"
        ~doc:"Platform: example, multimedia or mesh3x3")

let weights =
  Arg.(
    value
    & opt string "1,1,1"
    & info [ "weights" ] ~docv:"C1,C2,C3"
        ~doc:"Tile cost function constants of Eqn. 2")

let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print static-order schedules")

let skip =
  Arg.(
    value & flag
    & info [ "skip-failed" ]
        ~doc:"Reject unallocatable applications and continue (the paper's \
              run-time improvement) instead of stopping at the first failure")

let gantt =
  Arg.(
    value & flag
    & info [ "gantt" ]
        ~doc:"Print an ASCII Gantt chart of each allocation's execution")

let deploy =
  Arg.(
    value
    & opt (some dir) None
    & info [ "deploy" ] ~docv:"DIR"
        ~doc:"Write one XML deployment descriptor per allocated application \
              into $(docv)")

let scenario =
  Arg.(
    value
    & opt (some file) None
    & info [ "scenario" ] ~docv:"FILE"
        ~doc:
          "Scenario FSM applied to every application as an admission gate:\n\
          \ an application whose worst-case scenario output rate misses its\n\
          \ lambda (a necessary condition no allocation can repair) is\n\
          \ excluded before binding")

let ordering =
  Arg.(
    value
    & opt
        (enum
           [ ("given", Core.Multi_app.As_given);
             ("heavy-first", Core.Multi_app.By_total_work_descending);
             ("light-first", Core.Multi_app.By_total_work_ascending) ])
        Core.Multi_app.As_given
    & info [ "order" ] ~docv:"ORDER"
        ~doc:"Preprocessing order: given, heavy-first or light-first")

let cmd =
  Cmd.v
    (Cmd.info "sdf3_flow" ~doc:"Throughput-constrained resource allocation for SDFGs")
    Term.(
      const flow $ apps $ files $ set $ count $ platform $ weights $ verbose
      $ skip $ ordering $ scenario $ deploy $ gantt $ Cli_common.log_level
      $ Cli_common.metrics_file $ Cli_common.metrics_stderr
      $ Cli_common.trace_file)

let () = exit (Cmd.eval cmd)
