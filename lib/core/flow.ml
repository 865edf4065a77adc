module Appgraph = Appmodel.Appgraph
module Archgraph = Platform.Archgraph
module Rat = Sdf.Rat

type attempt = {
  weights : Cost.weights;
  outcome : (Strategy.allocation, Strategy.failure) result;
}

type result = {
  allocation : Strategy.allocation option;
  attempts : attempt list;
}

let default_weight_ladder =
  [
    Cost.weights 0. 1. 2.;
    Cost.weights 0. 0. 1.;
    Cost.weights 0. 1. 0.;
    Cost.weights 1. 1. 1.;
    Cost.weights 1. 0. 0.;
  ]

let outcome_label = function
  | Ok _ -> "allocated"
  | Error (Strategy.Bind_failed _) -> "bind_failed"
  | Error Strategy.Schedule_failed -> "schedule_failed"
  | Error (Strategy.Slice_failed _) -> "slice_failed"
  | Error (Strategy.Budget_exhausted _) -> "budget_exhausted"

(* One telemetry record per ladder rung tried (kind "flow.attempt"). *)
let record_attempt app rung (weights : Cost.weights) outcome =
  Obs.Counter.add "flow.attempts" 1;
  Obs.Event.emit "flow.attempt"
    ([
       ("app", Obs.Event.String app.Appgraph.app_name);
       ("rung", Obs.Event.Int rung);
       ("c1", Obs.Event.Float weights.Cost.c1);
       ("c2", Obs.Event.Float weights.Cost.c2);
       ("c3", Obs.Event.Float weights.Cost.c3);
       ("outcome", Obs.Event.String (outcome_label outcome));
     ]
    @
    match outcome with
    | Ok (alloc : Strategy.allocation) ->
        [
          ( "throughput",
            Obs.Event.String (Rat.to_string alloc.Strategy.throughput) );
          ( "checks",
            Obs.Event.Int alloc.Strategy.stats.Strategy.throughput_checks );
        ]
    | Error (Strategy.Slice_failed f) ->
        [ ("checks", Obs.Event.Int f.Slice_alloc.checks) ]
    | Error _ -> [])

let allocate_with_retry ?(weight_ladder = default_weight_ladder)
    ?connection_model ?max_states ?(budget = Budget.infinite) app arch =
  let rec go rung attempts = function
    | [] ->
        Obs.Counter.add "flow.exhausted" 1;
        { allocation = None; attempts = List.rev attempts }
    | weights :: rest -> (
        let outcome =
          Obs.Span.with_ "flow.attempt" (fun () ->
              Strategy.allocate ~weights ?connection_model ?max_states ~budget
                app arch)
        in
        record_attempt app rung weights outcome;
        let attempts = { weights; outcome } :: attempts in
        match outcome with
        | Ok alloc ->
            Obs.Counter.add "flow.allocated" 1;
            { allocation = Some alloc; attempts = List.rev attempts }
        | Error (Strategy.Budget_exhausted _) ->
            (* Degrade to the next rung: with an absolute deadline the
               remaining rungs fail fast, so an exploding rung cannot kill
               the whole ladder. *)
            Obs.Counter.add "budget.rung_aborts" 1;
            go (rung + 1) attempts rest
        | Error _ -> go (rung + 1) attempts rest)
  in
  go 0 [] weight_ladder
