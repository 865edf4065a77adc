(* Reading an [Obs] registry document: the in-process [Obs.snapshot_json]
   or the file a daemon wrote with [--metrics]. *)

module Json = Obs.Json

type t = Json.t

let of_file path =
  match Json.parse (Util.read_file path) with
  | Ok j -> j
  | Error e -> Util.incorrect "metrics file %s: %s" path e

let section name (j : t) =
  match Json.member name j with Some (Json.Assoc kvs) -> kvs | _ -> []

let num = function
  | Json.Int i -> float_of_int i
  | Json.Float f -> f
  | _ -> 0.

let counter j name =
  match List.assoc_opt name (section "counters" j) with
  | Some v -> num v
  | None -> 0.

let gauge j name =
  match List.assoc_opt name (section "gauges" j) with
  | Some v -> num v
  | None -> 0.

let field name = function
  | Json.Assoc kvs -> (
      match List.assoc_opt name kvs with Some v -> num v | None -> 0.)
  | _ -> 0.

(* Count and total seconds of every timer whose span path ends in [leaf]
   (the same layer reached through different enclosing spans). *)
let timer j leaf =
  List.fold_left
    (fun (c, s) (path, v) ->
      let is_leaf =
        path = leaf
        || String.ends_with ~suffix:("/" ^ leaf) path
      in
      if is_leaf then (c +. field "count" v, s +. field "total_s" v) else (c, s))
    (0., 0.) (section "timers" j)

let histogram j name =
  match List.assoc_opt name (section "histograms" j) with
  | Some v -> Some (field "count" v, field "p50" v, field "p99" v)
  | None -> None
