module Sdfg = Sdf.Sdfg
module Rat = Sdf.Rat
module Appgraph = Appmodel.Appgraph
module Tile = Platform.Tile
module Archgraph = Platform.Archgraph
module Strategy = Core.Strategy

(* Independent re-derivation of the Section-7 resource constraints from the
   raw allocation. Deliberately shares no code with Core.Binding /
   Core.Strategy: everything is recomputed from Gamma, Theta and the tile
   table, so a bookkeeping bug on either side shows up as a disagreement. *)

let validate arch (alloc : Strategy.allocation) =
  let app = alloc.Strategy.app in
  let g = app.Appgraph.graph in
  let n = Sdfg.num_actors g in
  let nt = Archgraph.num_tiles arch in
  let binding = alloc.Strategy.binding in
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let rec actors a =
    if a >= n then Ok ()
    else if binding.(a) < 0 || binding.(a) >= nt then
      err "actor %s bound to no tile" (Sdfg.actor_name g a)
    else
      let tile = Archgraph.tile arch binding.(a) in
      match Appgraph.exec_time app a tile.Tile.proc_type with
      | None ->
          err "actor %s bound to unsupported processor type %s"
            (Sdfg.actor_name g a) tile.Tile.proc_type
      | Some _ -> actors (a + 1)
  in
  let slices () =
    let hosts = Array.make nt false in
    Array.iter (fun t -> if t >= 0 then hosts.(t) <- true) binding;
    let rec go t =
      if t >= nt then Ok ()
      else
        let tile = Archgraph.tile arch t in
        let omega = alloc.Strategy.slices.(t) in
        if omega < 0 || omega > Tile.available_wheel tile then
          err "tile %s: slice %d outside the available wheel [0, %d]"
            tile.Tile.t_name omega
            (Tile.available_wheel tile)
        else if hosts.(t) && omega = 0 then
          err "tile %s hosts actors but received no slice" tile.Tile.t_name
        else go (t + 1)
    in
    go 0
  in
  let resources () =
    let mem = Array.make nt 0
    and conns = Array.make nt 0
    and bw_in = Array.make nt 0
    and bw_out = Array.make nt 0 in
    Array.iteri
      (fun a t ->
        match
          Appgraph.memory app a (Archgraph.tile arch t).Tile.proc_type
        with
        | Some m -> mem.(t) <- mem.(t) + m
        | None -> ())
      binding;
    let split_problem = ref (Ok ()) in
    Array.iteri
      (fun ci (cr : Appgraph.channel_req) ->
        let c = Sdfg.channel g ci in
        let ts = binding.(c.Sdfg.src) and td = binding.(c.Sdfg.dst) in
        if ts = td then
          mem.(ts) <- mem.(ts) + (cr.Appgraph.alpha_tile * cr.Appgraph.token_size)
        else begin
          mem.(ts) <- mem.(ts) + (cr.Appgraph.alpha_src * cr.Appgraph.token_size);
          mem.(td) <- mem.(td) + (cr.Appgraph.alpha_dst * cr.Appgraph.token_size);
          conns.(ts) <- conns.(ts) + 1;
          conns.(td) <- conns.(td) + 1;
          bw_out.(ts) <- bw_out.(ts) + cr.Appgraph.bandwidth;
          bw_in.(td) <- bw_in.(td) + cr.Appgraph.bandwidth;
          if cr.Appgraph.bandwidth <= 0 then
            split_problem :=
              err "channel %s split with no bandwidth" (Sdfg.channel_name g ci)
          else if Archgraph.connection_between arch ~src:ts ~dst:td = None then
            split_problem :=
              err "channel %s split across unconnected tiles"
                (Sdfg.channel_name g ci)
        end)
      app.Appgraph.creqs;
    match !split_problem with
    | Error _ as e -> e
    | Ok () ->
        let rec go t =
          if t >= nt then Ok ()
          else
            let tile = Archgraph.tile arch t in
            if mem.(t) > tile.Tile.mem then
              err "tile %s: memory %d > %d" tile.Tile.t_name mem.(t)
                tile.Tile.mem
            else if conns.(t) > tile.Tile.max_conns then
              err "tile %s: %d connections > %d" tile.Tile.t_name conns.(t)
                tile.Tile.max_conns
            else if bw_in.(t) > tile.Tile.in_bw then
              err "tile %s: incoming bandwidth %d > %d" tile.Tile.t_name
                bw_in.(t) tile.Tile.in_bw
            else if bw_out.(t) > tile.Tile.out_bw then
              err "tile %s: outgoing bandwidth %d > %d" tile.Tile.t_name
                bw_out.(t) tile.Tile.out_bw
            else go (t + 1)
        in
        go 0
  in
  let throughput () =
    if Rat.compare alloc.Strategy.throughput app.Appgraph.lambda >= 0 then
      Ok ()
    else
      err "allocation throughput %s misses the constraint %s"
        (Rat.to_string alloc.Strategy.throughput)
        (Rat.to_string app.Appgraph.lambda)
  in
  match actors 0 with
  | Error _ as e -> e
  | Ok () -> (
      match slices () with
      | Error _ as e -> e
      | Ok () -> (
          match resources () with
          | Error _ as e -> e
          | Ok () -> throughput ()))

(* --- application-level oracles -------------------------------------- *)

(* A canonical, seconds-free rendering of a flow result: two runs are
   considered identical iff these strings match. *)
let allocation_summary (a : Strategy.allocation) =
  Format.asprintf "thr %s checks %d binding [%s] slices [%s]"
    (Rat.to_string a.Strategy.throughput)
    a.Strategy.stats.Strategy.throughput_checks
    (String.concat ";"
       (Array.to_list (Array.map string_of_int a.Strategy.binding)))
    (String.concat ";"
       (Array.to_list (Array.map string_of_int a.Strategy.slices)))

let attempt_summary (at : Core.Flow.attempt) =
  let w = at.Core.Flow.weights in
  let ws =
    Printf.sprintf "(%g,%g,%g)" w.Core.Cost.c1 w.Core.Cost.c2 w.Core.Cost.c3
  in
  match at.Core.Flow.outcome with
  | Error f -> Format.asprintf "%s => %a" ws Strategy.pp_failure f
  | Ok a -> ws ^ " => " ^ allocation_summary a

let flow_summary (r : Core.Flow.result) =
  String.concat "\n" (List.map attempt_summary r.Core.Flow.attempts)

let with_memo enabled f =
  let before = Analysis.Memo.enabled () in
  Analysis.Memo.set_enabled enabled;
  Fun.protect
    ~finally:(fun () -> Analysis.Memo.set_enabled before)
    (fun () ->
      Analysis.Memo.clear_all ();
      f ())

(* Flow results must be invariant under memoization; the paper's resource
   constraints must hold for every allocation produced. *)
let flow_invariance ~max_states app arch =
  let run () = Core.Flow.allocate_with_retry ~max_states app arch in
  let base = with_memo true run in
  let no_memo = with_memo false run in
  if flow_summary no_memo <> flow_summary base then
    Oracle.Fail "flow result changes when memoization is disabled"
  else
    match base.Core.Flow.allocation with
    | None -> Oracle.Pass
    | Some alloc -> (
        match validate arch alloc with
        | Error e -> Oracle.failf "flow allocation violates Section 7: %s" e
        | Ok () ->
            if Strategy.is_valid alloc arch then Oracle.Pass
            else
              Oracle.Fail
                "independent validator accepts but Strategy.is_valid rejects")

(* The configuration the engine-vs-reference oracles explore: the
   application bound with the paper's default weights, as a binding-aware
   graph under half-wheel slices. [None] when no feasible binding
   exists. *)
let half_wheel_ba app arch =
  match
    Core.Binding_step.bind ~weights:(Core.Cost.weights 0. 1. 2.) app arch
  with
  | Error _ -> None
  | Ok binding ->
      let slices = Core.Bind_aware.half_wheel_slices app arch binding in
      Some (Core.Bind_aware.build ~app ~arch ~binding ~slices ())

(* [half_wheel_ba] plus its list-scheduled static orders, handed to [k];
   skips where either step fails. *)
let with_schedules ~max_states app arch k =
  match half_wheel_ba app arch with
  | None -> Oracle.Skip "no feasible binding"
  | Some ba -> (
      match Core.List_scheduler.schedules ~max_states ba with
      | exception Core.List_scheduler.Deadlocked ->
          Oracle.Skip "list scheduler deadlocks"
      | exception Core.List_scheduler.State_space_exceeded _ ->
          Oracle.Skip "list scheduler exceeds the state cap"
      | schedules -> k ba schedules)

let constrained_outcome f =
  match f () with
  | (r : Core.Constrained.result) -> Ok r
  | exception Core.Constrained.Deadlocked -> Error "deadlock"
  | exception Core.Constrained.State_space_exceeded _ -> Error "state cap"

let compare_constrained engine reference =
  match (engine, reference) with
  | Error a, Error b when a = b -> Oracle.Pass
  | Error a, Error b ->
      Oracle.failf "constrained engine aborts with %s, reference %s" a b
  | Error a, Ok _ ->
      Oracle.failf "constrained engine aborts (%s), reference runs" a
  | Ok _, Error b ->
      Oracle.failf "constrained reference aborts (%s), engine runs" b
  | Ok e, Ok r ->
      if
        Rat.equal e.Core.Constrained.throughput r.Core.Constrained.throughput
        && e.Core.Constrained.period = r.Core.Constrained.period
        && e.Core.Constrained.transient = r.Core.Constrained.transient
        && e.Core.Constrained.states = r.Core.Constrained.states
      then Oracle.Pass
      else
        Oracle.failf
          "constrained engine (thr %s period %d transient %d states %d) and \
           reference (thr %s period %d transient %d states %d) diverge"
          (Rat.to_string e.Core.Constrained.throughput)
          e.Core.Constrained.period e.Core.Constrained.transient
          e.Core.Constrained.states
          (Rat.to_string r.Core.Constrained.throughput)
          r.Core.Constrained.period r.Core.Constrained.transient
          r.Core.Constrained.states

(* Old-vs-new constrained engine on a realistic configuration: require
   the packed engine and the retained Marshal/Hashtbl reference to agree
   on every field of the constrained result — including the visited-state
   count and the reified negative outcomes. *)
let constrained_engine_agreement ~max_states app arch =
  with_schedules ~max_states app arch (fun ba schedules ->
      compare_constrained
        (constrained_outcome (fun () ->
             Core.Constrained.analyze ~max_states ba ~schedules))
        (constrained_outcome (fun () ->
             Core.Constrained.analyze_reference ~max_states ba ~schedules)))

(* The observer contract of the worklist engines: the engine's (time,
   actor) stream lists its instants in time order, and each instant holds
   the reference's multiset of starts; the order inside an instant is the
   engine's own. Sorting both streams compares the per-instant multisets
   and the instant sequence at once. *)
let observer_agreement ~engine ~reference =
  let rec nondecreasing = function
    | (t0, _) :: ((t1, _) :: _ as rest) -> t0 <= t1 && nondecreasing rest
    | _ -> true
  in
  if not (nondecreasing engine) then
    Oracle.Fail "engine observer times go backwards"
  else if List.sort compare engine <> List.sort compare reference then
    Oracle.failf
      "engine and reference observers differ: %d vs %d starts, or a \
       different multiset at some instant"
      (List.length engine) (List.length reference)
  else Oracle.Pass

(* Runs both sides with a logging observer: their outcomes must pass
   [compare], their start streams [observer_agreement]. *)
let observers_agree compare engine reference =
  let run f =
    let log = ref [] in
    let r = f ~observer:(fun time actor -> log := (time, actor) :: !log) in
    (r, List.rev !log)
  in
  let e, e_starts = run engine and r, r_starts = run reference in
  match compare e r with
  | Oracle.Fail _ as f -> f
  | _ -> observer_agreement ~engine:e_starts ~reference:r_starts

let constrained_observer_agreement ~max_states app arch =
  with_schedules ~max_states app arch (fun ba schedules ->
      observers_agree compare_constrained
        (fun ~observer ->
          constrained_outcome (fun () ->
              Core.Constrained.analyze ~observer ~max_states ba ~schedules))
        (fun ~observer ->
          constrained_outcome (fun () ->
              Core.Constrained.analyze_reference ~observer ~max_states ba
                ~schedules)))

(* The packed list scheduler against its pre-engine reference: the same
   per-tile start traces and recurrence split — hence the same static-order
   schedules — or the same exception. *)
let list_scheduler_agreement ~max_states app arch =
  match half_wheel_ba app arch with
  | None -> Oracle.Skip "no feasible binding"
  | Some ba -> (
      let run f =
        match f () with
        | r -> Ok r
        | exception Core.List_scheduler.Deadlocked -> Error "deadlock"
        | exception Core.List_scheduler.State_space_exceeded _ ->
            Error "state cap"
      in
      match
        ( run (fun () -> Core.List_scheduler.run ~max_states ba),
          run (fun () -> List_scheduler_reference.run ~max_states ba) )
      with
      | Error a, Error b when a = b -> Oracle.Pass
      | Error a, Error b ->
          Oracle.failf "list scheduler aborts with %s, reference %s" a b
      | Error a, Ok _ ->
          Oracle.failf "list scheduler aborts (%s), reference runs" a
      | Ok _, Error b ->
          Oracle.failf "list scheduler reference aborts (%s), engine runs" b
      | Ok (split_e, traces_e), Ok (split_r, traces_r) ->
          if split_e <> split_r then
            Oracle.Fail
              "list scheduler and reference split the traces differently"
          else if traces_e <> traces_r then
            Oracle.Fail "list scheduler and reference start different traces"
          else Oracle.Pass)

let multi_app_summary (r : Core.Multi_app.report) =
  Format.asprintf "allocs [%s] rejected [%s] wheel %d mem %d conns %d bw %d/%d"
    (String.concat ";" (List.map allocation_summary r.Core.Multi_app.allocations))
    (String.concat ";"
       (List.map
          (fun (a : Appgraph.t) -> a.Appgraph.app_name)
          r.Core.Multi_app.rejected))
    r.Core.Multi_app.wheel_used r.Core.Multi_app.memory_used
    r.Core.Multi_app.connections_used r.Core.Multi_app.bw_in_used
    r.Core.Multi_app.bw_out_used

let multi_app_invariance ~max_states apps arch =
  let run () =
    Core.Multi_app.allocate_until_failure ~max_states
      ~policy:Core.Multi_app.Skip_failed apps arch
  in
  let base = with_memo true run in
  let no_memo = with_memo false run in
  if multi_app_summary no_memo <> multi_app_summary base then
    Oracle.Fail "multi-app report changes when memoization is disabled"
  else Oracle.Pass
