module Sdfg = Sdf.Sdfg
module Rat = Sdf.Rat

type transition = { at : int; started : int list }

type t = {
  transitions : transition list;
  transient : int;
  period : int;
  throughput : Rat.t array;
}

(* One transition per instant, its starts in actor-index order (the
   engines leave that order unspecified); consing undoes the descending sort. *)
let group_events events =
  List.fold_left
    (fun acc (t, a) ->
      match acc with
      | tr :: rest when tr.at = t -> { tr with started = a :: tr.started } :: rest
      | _ -> { at = t; started = [ a ] } :: acc)
    []
    (List.sort (fun x y -> compare y x) events)

let of_events ~events ~transient ~period ~throughput =
  { transitions = group_events events; transient; period; throughput }

let selftimed ?max_states g exec_times =
  let events = ref [] in
  let observer time actor = events := (time, actor) :: !events in
  let r = Selftimed.analyze ~observer ?max_states g exec_times in
  of_events ~events:(List.rev !events)
    ~transient:r.Selftimed.transient ~period:r.Selftimed.period
    ~throughput:r.Selftimed.throughput

(* The trace records firings up to (and into) the recurrent state; only the
   transitions inside [transient, transient + period) form the cycle. *)
let periodic_window t = (t.transient, t.transient + t.period)

let pp pp_actor ppf t =
  let lo, hi = periodic_window t in
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun tr ->
      if tr.at < hi then begin
        if tr.at = lo then
          Format.fprintf ppf "--- periodic phase (period %d) ---@," t.period;
        Format.fprintf ppf "t=%-5d start " tr.at;
        List.iteri
          (fun i a ->
            if i > 0 then Format.fprintf ppf ", ";
            pp_actor ppf a)
          tr.started;
        Format.fprintf ppf "@,"
      end)
    t.transitions;
  Format.fprintf ppf "@]"

let to_dot ~actor_name t =
  let lo, hi = periodic_window t in
  let visible = List.filter (fun tr -> tr.at < hi) t.transitions in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph statespace {\n  rankdir=LR;\n";
  Buffer.add_string buf "  node [shape=circle, label=\"\", width=0.15];\n";
  let n = List.length visible in
  let loop_start = ref 0 in
  List.iteri
    (fun i tr ->
      if tr.at = lo then loop_start := i;
      let label =
        String.concat "," (List.map actor_name tr.started)
        ^
        match List.nth_opt visible (i + 1) with
        | Some next -> Printf.sprintf " / %d" (next.at - tr.at)
        | None -> Printf.sprintf " / %d" (hi - tr.at)
      in
      let dst = if i + 1 < n then i + 1 else !loop_start in
      Buffer.add_string buf
        (Printf.sprintf "  s%d -> s%d [label=\"%s\"];\n" i dst label))
    visible;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
