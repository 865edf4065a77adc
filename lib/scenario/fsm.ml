module Sdfg = Sdf.Sdfg
module Repetition = Sdf.Repetition

type mode = {
  m_name : string;
  rates : (int * int) array;
  taus : int array;
}

type transition = { t_src : int; t_dst : int; delay : int }

type t = {
  name : string;
  graph : Sdfg.t;
  modes : mode array;
  transitions : transition array;
  initial : int;
  gamma : int array array;
  out : (int * int) array array;
}

let mode_graph_of graph (m : mode) =
  let b = Sdfg.Builder.create () in
  Array.iter
    (fun (a : Sdfg.actor) ->
      ignore (Sdfg.Builder.add_actor b a.Sdfg.a_name : int))
    (Sdfg.actors graph);
  Array.iter
    (fun (c : Sdfg.channel) ->
      let prod, cons = m.rates.(c.Sdfg.c_idx) in
      ignore
        (Sdfg.Builder.add_channel b ~name:c.Sdfg.c_name ~tokens:c.Sdfg.tokens
           ~src:c.Sdfg.src ~dst:c.Sdfg.dst ~prod ~cons ()
          : int))
    (Sdfg.channels graph);
  Sdfg.Builder.build b

let mode_graph t m = mode_graph_of t.graph t.modes.(m)

let fail fmt = Printf.ksprintf invalid_arg fmt

let make ~name ~graph ~modes ~transitions ~initial =
  let n = Sdfg.num_actors graph in
  let nc = Sdfg.num_channels graph in
  let nm = Array.length modes in
  if n = 0 then fail "Scenario.make: empty graph";
  if nm = 0 then fail "Scenario.make: no modes";
  for a = 0 to n - 1 do
    if Sdfg.in_channels graph a = [||] then
      fail
        "Scenario.make: actor %s has no input channel (unbounded \
         auto-concurrency)"
        (Sdfg.actor_name graph a)
  done;
  let names = Hashtbl.create nm in
  Array.iter
    (fun m ->
      if Hashtbl.mem names m.m_name then
        fail "Scenario.make: duplicate mode %s" m.m_name;
      Hashtbl.add names m.m_name ();
      if Array.length m.rates <> nc then
        fail "Scenario.make: mode %s: rates length mismatch" m.m_name;
      if Array.length m.taus <> n then
        fail "Scenario.make: mode %s: taus length mismatch" m.m_name;
      Array.iter
        (fun (p, q) ->
          if p < 1 || q < 1 then
            fail "Scenario.make: mode %s: non-positive rate" m.m_name)
        m.rates;
      Array.iter
        (fun tau ->
          if tau < 0 then
            fail "Scenario.make: mode %s: negative execution time" m.m_name)
        m.taus)
    modes;
  if initial < 0 || initial >= nm then fail "Scenario.make: initial mode out of range";
  Array.iter
    (fun tr ->
      if tr.t_src < 0 || tr.t_src >= nm || tr.t_dst < 0 || tr.t_dst >= nm then
        fail "Scenario.make: transition endpoint out of range";
      if tr.delay < 0 then fail "Scenario.make: negative transition delay")
    transitions;
  let gamma =
    Array.map
      (fun m ->
        match Repetition.compute (mode_graph_of graph m) with
        | Repetition.Consistent g -> g
        | Repetition.Inconsistent _ ->
            fail "Scenario.make: mode %s is inconsistent" m.m_name
        | Repetition.Disconnected ->
            fail "Scenario.make: mode %s is not connected" m.m_name)
      modes
  in
  let out =
    let buckets = Array.make nm [] in
    Array.iter
      (fun tr -> buckets.(tr.t_src) <- (tr.t_dst, tr.delay) :: buckets.(tr.t_src))
      transitions;
    Array.map (fun l -> Array.of_list (List.rev l)) buckets
  in
  Array.iteri
    (fun q succ ->
      if Array.length succ = 0 then
        fail "Scenario.make: mode %s has no outgoing transition"
          modes.(q).m_name)
    out;
  { name; graph; modes; transitions; initial; gamma; out }

let single ?(name = "single") g taus =
  let rates =
    Array.map (fun (c : Sdfg.channel) -> (c.Sdfg.prod, c.Sdfg.cons)) (Sdfg.channels g)
  in
  make ~name ~graph:g
    ~modes:[| { m_name = "m0"; rates; taus = Array.copy taus } |]
    ~transitions:[| { t_src = 0; t_dst = 0; delay = 0 } |]
    ~initial:0

(* ------------------------------------------------------------------ *)
(* Text format, mirroring Sdf.Textio's line discipline. *)

exception Parse_error of { line : int; message : string }

let perr line fmt = Printf.ksprintf (fun message -> raise (Parse_error { line; message })) fmt

let int_of line what s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> perr line "%s is not an integer: %s" what s

type pmode = {
  pm_name : string;
  pm_taus : int array;
  pm_rates : (int * int) array;
}

let parse ~graph ~taus ?name text =
  let n = Sdfg.num_actors graph in
  if Array.length taus <> n then
    invalid_arg "Scenario.parse: taus length mismatch";
  let actor_idx line nm =
    match Sdfg.actor_index graph nm with
    | a -> a
    | exception Not_found -> perr line "unknown actor %s" nm
  in
  let channel_idx line nm =
    let found = ref (-1) in
    Array.iter
      (fun (c : Sdfg.channel) -> if c.Sdfg.c_name = nm then found := c.Sdfg.c_idx)
      (Sdfg.channels graph);
    if !found < 0 then perr line "unknown channel %s" nm;
    !found
  in
  let scn_name = ref (Option.value name ~default:"scenario") in
  let modes = ref [] in
  let cur : pmode option ref = ref None in
  let edges = ref [] in
  let initial = ref None in
  let close_mode () =
    match !cur with
    | None -> ()
    | Some m ->
        modes := m :: !modes;
        cur := None
  in
  let base_rates () =
    Array.map (fun (c : Sdfg.channel) -> (c.Sdfg.prod, c.Sdfg.cons)) (Sdfg.channels graph)
  in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun i raw ->
      let ln = i + 1 in
      let l =
        match String.index_opt raw '#' with
        | Some j -> String.sub raw 0 j
        | None -> raw
      in
      match
        String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) l)
        |> List.filter (fun s -> s <> "")
      with
      | [] -> ()
      | [ "scenario"; nm ] -> scn_name := nm
      | [ "mode"; nm ] ->
          close_mode ();
          cur :=
            Some { pm_name = nm; pm_taus = Array.copy taus; pm_rates = base_rates () }
      | [ "actor"; nm; tau ] -> (
          match !cur with
          | None -> perr ln "actor line outside a mode"
          | Some m ->
              let tau = int_of ln "execution time" tau in
              m.pm_taus.(actor_idx ln nm) <- tau)
      | [ "channel"; nm; "rates"; p; q ] -> (
          match !cur with
          | None -> perr ln "channel line outside a mode"
          | Some m ->
              let p = int_of ln "production rate" p in
              let q = int_of ln "consumption rate" q in
              m.pm_rates.(channel_idx ln nm) <- (p, q))
      | [ "initial"; nm ] -> initial := Some (ln, nm)
      | "edge" :: src :: "->" :: dst :: rest ->
          let delay =
            match rest with
            | [] -> 0
            | [ "delay"; d ] -> int_of ln "delay" d
            | _ -> perr ln "malformed edge line"
          in
          edges := (ln, src, dst, delay) :: !edges
      | w :: _ -> perr ln "unknown directive %s" w)
    lines;
  close_mode ();
  let pmodes = Array.of_list (List.rev !modes) in
  if Array.length pmodes = 0 then perr 0 "no modes declared";
  let mode_idx line nm =
    let found = ref (-1) in
    Array.iteri (fun i m -> if m.pm_name = nm then found := i) pmodes;
    if !found < 0 then perr line "unknown mode %s" nm;
    !found
  in
  let transitions =
    match (!edges, Array.length pmodes) with
    | [], 1 -> [| { t_src = 0; t_dst = 0; delay = 0 } |]
    | edges, _ ->
        Array.of_list
          (List.rev_map
             (fun (ln, src, dst, delay) ->
               { t_src = mode_idx ln src; t_dst = mode_idx ln dst; delay })
             edges)
  in
  let initial =
    match !initial with Some (ln, nm) -> mode_idx ln nm | None -> 0
  in
  let modes =
    Array.map
      (fun m -> { m_name = m.pm_name; rates = m.pm_rates; taus = m.pm_taus })
      pmodes
  in
  match make ~name:!scn_name ~graph ~modes ~transitions ~initial with
  | fsm -> fsm
  | exception Invalid_argument m -> raise (Parse_error { line = 0; message = m })

let parse_file ~graph ~taus path =
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  parse ~graph ~taus text

let to_text t =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "scenario %s\n" t.name);
  Array.iter
    (fun m ->
      Buffer.add_string b (Printf.sprintf "mode %s\n" m.m_name);
      Array.iteri
        (fun a tau ->
          Buffer.add_string b
            (Printf.sprintf "  actor %s %d\n" (Sdfg.actor_name t.graph a) tau))
        m.taus;
      Array.iteri
        (fun ci (p, q) ->
          Buffer.add_string b
            (Printf.sprintf "  channel %s rates %d %d\n"
               (Sdfg.channel_name t.graph ci) p q))
        m.rates)
    t.modes;
  Buffer.add_string b
    (Printf.sprintf "initial %s\n" t.modes.(t.initial).m_name);
  Array.iter
    (fun tr ->
      Buffer.add_string b
        (Printf.sprintf "edge %s -> %s delay %d\n" t.modes.(tr.t_src).m_name
           t.modes.(tr.t_dst).m_name tr.delay))
    t.transitions;
  Buffer.contents b
