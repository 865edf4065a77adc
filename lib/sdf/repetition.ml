type result =
  | Consistent of int array
  | Inconsistent of { channel : int }
  | Disconnected

exception Conflict of int

(* Propagate rational firing rates over the undirected graph: crossing a
   channel (a, b, p, q) forward imposes rate(b) = rate(a) * p / q. A
   back-channel to an already-rated actor must agree, otherwise the balance
   equations have no non-trivial solution. *)
let compute g =
  let n = Sdfg.num_actors g in
  if n = 0 then Consistent [||]
  else begin
    let rate = Array.make n Rat.zero in
    let seen = Array.make n false in
    let rec visit a =
      Array.iter
        (fun ci ->
          let c = Sdfg.channel g ci in
          let r = Rat.mul_int (Rat.div_int rate.(a) c.Sdfg.cons) c.Sdfg.prod in
          step c.Sdfg.dst r ci)
        (Sdfg.out_channels g a);
      Array.iter
        (fun ci ->
          let c = Sdfg.channel g ci in
          let r = Rat.mul_int (Rat.div_int rate.(a) c.Sdfg.prod) c.Sdfg.cons in
          step c.Sdfg.src r ci)
        (Sdfg.in_channels g a)
    and step b r ci =
      if seen.(b) then begin
        if not (Rat.equal rate.(b) r) then raise (Conflict ci)
      end
      else begin
        seen.(b) <- true;
        rate.(b) <- r;
        visit b
      end
    in
    seen.(0) <- true;
    rate.(0) <- Rat.one;
    match visit 0 with
    | () ->
        if not (Array.for_all Fun.id seen) then Disconnected
        else begin
          (* Scale the rational rates to the smallest positive integers. *)
          let l = Array.fold_left (fun acc r -> Rat.lcm acc (Rat.den r)) 1 rate in
          let ints = Array.map (fun r -> Rat.num r * (l / Rat.den r)) rate in
          let gc = Array.fold_left Rat.gcd 0 ints in
          Consistent (Array.map (fun v -> v / gc) ints)
        end
    | exception Conflict ci -> Inconsistent { channel = ci }
  end

let vector_exn g =
  match compute g with
  | Consistent gamma -> gamma
  | Inconsistent { channel } ->
      invalid_arg
        (Printf.sprintf "Repetition.vector_exn: inconsistent on channel %s"
           (Sdfg.channel_name g channel))
  | Disconnected -> invalid_arg "Repetition.vector_exn: graph not connected"

let is_consistent g =
  match compute g with Consistent _ -> true | Inconsistent _ | Disconnected -> false

let check g gamma =
  Array.length gamma = Sdfg.num_actors g
  && Array.for_all (fun v -> v > 0) gamma
  && Array.for_all
       (fun c ->
         c.Sdfg.prod * gamma.(c.Sdfg.src) = c.Sdfg.cons * gamma.(c.Sdfg.dst))
       (Sdfg.channels g)

let iteration_firings gamma = Array.fold_left ( + ) 0 gamma
