module Tile = Platform.Tile
module Appgraph = Appmodel.Appgraph
module Archgraph = Platform.Archgraph

type failure_policy = Stop_at_first_failure | Skip_failed

type order = As_given | By_total_work_descending | By_total_work_ascending

type report = {
  allocations : Strategy.allocation list;
  rejected : Appgraph.t list;
  remaining : Archgraph.t;
  first_failure : Strategy.failure option;
  wheel_used : int;
  memory_used : int;
  connections_used : int;
  bw_in_used : int;
  bw_out_used : int;
}

let commit arch (alloc : Strategy.allocation) =
  let usage = Binding.usage alloc.Strategy.app arch alloc.Strategy.binding in
  let tiles =
    Array.mapi
      (fun t tile ->
        let u = usage.(t) in
        let omega = alloc.Strategy.slices.(t) in
        (* An untouched tile keeps its record: every allocation keeps its
           [arch] snapshot, and sharing unchanged tiles makes a snapshot
           cost only the tiles the application actually uses. *)
        if
          omega = 0 && u.Binding.memory = 0 && u.Binding.conns = 0
          && u.Binding.bw_in = 0 && u.Binding.bw_out = 0
        then tile
        else
          {
            tile with
            Tile.occupied = tile.Tile.occupied + omega;
            mem = tile.Tile.mem - u.Binding.memory;
            max_conns = tile.Tile.max_conns - u.Binding.conns;
            in_bw = tile.Tile.in_bw - u.Binding.bw_in;
            out_bw = tile.Tile.out_bw - u.Binding.bw_out;
          })
      (Archgraph.tiles arch)
  in
  Archgraph.with_tiles arch tiles

let reorder order apps =
  match order with
  | As_given -> apps
  | By_total_work_descending ->
      List.stable_sort
        (fun a b -> compare (Appgraph.total_work b) (Appgraph.total_work a))
        apps
  | By_total_work_ascending ->
      List.stable_sort
        (fun a b -> compare (Appgraph.total_work a) (Appgraph.total_work b))
        apps

let allocate_until_failure ?weights ?retry_ladder ?max_states ?budget
    ?(policy = Stop_at_first_failure) ?(order = As_given) apps arch =
  let apps = reorder order apps in
  let original = Archgraph.tiles arch in
  let attempt app arch =
    (* Route the single-setting case through the retry wrapper as a
       one-rung ladder: behaviourally identical to a direct
       [Strategy.allocate], but every path emits the per-rung
       "flow.attempt" telemetry records. *)
    let ladder =
      match retry_ladder with
      | Some l -> l
      | None -> [ Option.value weights ~default:Strategy.default_weights ]
    in
    let r =
      Flow.allocate_with_retry ~weight_ladder:ladder ?max_states ?budget app
        arch
    in
    match r.Flow.allocation with
    | Some alloc -> Ok alloc
    | None -> (
        match List.rev r.Flow.attempts with
        | last :: _ -> last.Flow.outcome
        | [] -> assert false)
  in
  let rec go acc rejected failure arch = function
    | [] -> (List.rev acc, List.rev rejected, arch, failure)
    | app :: rest -> (
        match attempt app arch with
        | Ok alloc -> go (alloc :: acc) rejected failure (commit arch alloc) rest
        | Error f -> (
            let failure = if failure = None then Some f else failure in
            match policy with
            | Stop_at_first_failure -> (List.rev acc, List.rev rejected, arch, failure)
            | Skip_failed -> go acc (app :: rejected) failure arch rest))
  in
  let allocations, rejected, remaining, first_failure = go [] [] None arch apps in
  let sum f =
    Array.to_list (Archgraph.tiles remaining)
    |> List.mapi (fun i t -> f original.(i) t)
    |> List.fold_left ( + ) 0
  in
  {
    allocations;
    rejected;
    remaining;
    first_failure;
    wheel_used = sum (fun o t -> t.Tile.occupied - o.Tile.occupied);
    memory_used = sum (fun o t -> o.Tile.mem - t.Tile.mem);
    connections_used = sum (fun o t -> o.Tile.max_conns - t.Tile.max_conns);
    bw_in_used = sum (fun o t -> o.Tile.in_bw - t.Tile.in_bw);
    bw_out_used = sum (fun o t -> o.Tile.out_bw - t.Tile.out_bw);
  }
