module Sdfg = Sdf.Sdfg
module Repetition = Sdf.Repetition

type case = { graph : Sdfg.t; taus : int array }

let size c =
  let rates_and_tokens =
    Array.fold_left
      (fun acc (ch : Sdfg.channel) -> acc + ch.prod + ch.cons + ch.tokens)
      0 (Sdfg.channels c.graph)
  in
  (1000 * Sdfg.num_actors c.graph)
  + (50 * Sdfg.num_channels c.graph)
  + rates_and_tokens
  + Array.fold_left ( + ) 0 c.taus

let well_formed c =
  let g = c.graph in
  let n = Sdfg.num_actors g in
  n >= 1
  && Array.length c.taus = n
  && Array.for_all (fun t -> t >= 0) c.taus
  && (let ok = ref true in
      for a = 0 to n - 1 do
        if Sdfg.in_channels g a = [||] then ok := false
      done;
      !ok)
  && Sdfg.is_weakly_connected g
  && Repetition.is_consistent g

(* Rebuild a graph keeping only the actors for which [keep] holds (and the
   channels between them), compacting indices. *)
let filter_actors g taus keep =
  let n = Sdfg.num_actors g in
  let remap = Array.make n (-1) in
  let b = Sdfg.Builder.create () in
  for a = 0 to n - 1 do
    if keep a then remap.(a) <- Sdfg.Builder.add_actor b (Sdfg.actor_name g a)
  done;
  Array.iter
    (fun (c : Sdfg.channel) ->
      if remap.(c.src) >= 0 && remap.(c.dst) >= 0 then
        ignore
          (Sdfg.Builder.add_channel b ~name:c.c_name ~tokens:c.tokens
             ~src:remap.(c.src) ~dst:remap.(c.dst) ~prod:c.prod ~cons:c.cons
             ()))
    (Sdfg.channels g);
  let taus' =
    Array.of_list (List.filteri (fun a _ -> keep a) (Array.to_list taus))
  in
  { graph = Sdfg.Builder.build b; taus = taus' }

(* Rebuild with a per-channel transform; [None] drops the channel. *)
let map_channels g taus f =
  let b = Sdfg.Builder.create () in
  for a = 0 to Sdfg.num_actors g - 1 do
    ignore (Sdfg.Builder.add_actor b (Sdfg.actor_name g a))
  done;
  Array.iter
    (fun (c : Sdfg.channel) ->
      match f c with
      | None -> ()
      | Some (prod, cons, tokens) ->
          ignore
            (Sdfg.Builder.add_channel b ~name:c.c_name ~tokens ~src:c.src
               ~dst:c.dst ~prod ~cons ()))
    (Sdfg.channels g);
  { graph = Sdfg.Builder.build b; taus = Array.copy taus }

let drop_actor c a =
  filter_actors c.graph c.taus (fun x -> x <> a)

let drop_channel c ci =
  map_channels c.graph c.taus (fun ch ->
      if ch.Sdfg.c_idx = ci then None
      else Some (ch.Sdfg.prod, ch.Sdfg.cons, ch.Sdfg.tokens))

let homogenize c =
  map_channels c.graph c.taus (fun ch ->
      Some (1, 1, ch.Sdfg.tokens))

let with_tokens c ci t =
  map_channels c.graph c.taus (fun ch ->
      if ch.Sdfg.c_idx = ci then Some (ch.Sdfg.prod, ch.Sdfg.cons, t)
      else Some (ch.Sdfg.prod, ch.Sdfg.cons, ch.Sdfg.tokens))

let with_tau c a t =
  let taus = Array.copy c.taus in
  taus.(a) <- t;
  { graph = c.graph; taus }

let candidates c =
  let g = c.graph in
  let n = Sdfg.num_actors g in
  let m = Sdfg.num_channels g in
  let acc = ref [] in
  let push x = acc := x :: !acc in
  (* Cheapest reductions last in the list we build, so after the final
     List.rev the aggressive ones (actor removal) come first. *)
  (* taus: straight to 1, then halve. *)
  for a = n - 1 downto 0 do
    if c.taus.(a) > 1 then begin
      push (with_tau c a (c.taus.(a) / 2));
      push (with_tau c a 1)
    end
  done;
  (* tokens: decrement, then halve. *)
  for ci = m - 1 downto 0 do
    let t = (Sdfg.channel g ci).Sdfg.tokens in
    if t > 0 then begin
      push (with_tokens c ci (t - 1));
      if t > 1 then push (with_tokens c ci (t / 2))
    end
  done;
  (* rates: collapse the whole graph to single-rate (per-channel rate edits
     break consistency; the global collapse preserves it trivially). *)
  if
    Array.exists
      (fun (ch : Sdfg.channel) -> ch.prod > 1 || ch.cons > 1)
      (Sdfg.channels g)
  then push (homogenize c);
  (* structure: drop one channel, drop one actor. *)
  if m > 1 then
    for ci = m - 1 downto 0 do
      push (drop_channel c ci)
    done;
  if n > 1 then
    for a = n - 1 downto 0 do
      push (drop_actor c a)
    done;
  List.rev !acc |> List.filter well_formed
