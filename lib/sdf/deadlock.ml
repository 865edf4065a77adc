type result = Deadlock_free | Deadlocked of { blocked : int list }

let check g gamma =
  let n = Sdfg.num_actors g in
  let remaining = Array.copy gamma in
  let tokens = Array.map (fun c -> c.Sdfg.tokens) (Sdfg.channels g) in
  let can_fire a =
    remaining.(a) > 0
    &&
    let ins = Sdfg.in_channels g a in
    let ok = ref true in
    for i = 0 to Array.length ins - 1 do
      if tokens.(ins.(i)) < (Sdfg.channel g ins.(i)).Sdfg.cons then ok := false
    done;
    !ok
  in
  let fire a =
    remaining.(a) <- remaining.(a) - 1;
    let ins = Sdfg.in_channels g a and outs = Sdfg.out_channels g a in
    for i = 0 to Array.length ins - 1 do
      let ci = ins.(i) in
      tokens.(ci) <- tokens.(ci) - (Sdfg.channel g ci).Sdfg.cons
    done;
    for i = 0 to Array.length outs - 1 do
      let ci = outs.(i) in
      tokens.(ci) <- tokens.(ci) + (Sdfg.channel g ci).Sdfg.prod
    done
  in
  (* Round-robin sweeps: each sweep fires every enabled actor as often as it
     can; if a full sweep makes no progress, the remaining actors are stuck. *)
  let progress = ref true in
  while !progress do
    progress := false;
    for a = 0 to n - 1 do
      while can_fire a do
        fire a;
        progress := true
      done
    done
  done;
  let blocked =
    List.filter (fun a -> remaining.(a) > 0) (List.init n Fun.id)
  in
  if blocked = [] then Deadlock_free else Deadlocked { blocked }

let is_deadlock_free g =
  match Repetition.compute g with
  | Repetition.Consistent gamma -> check g gamma = Deadlock_free
  | Repetition.Inconsistent _ | Repetition.Disconnected -> false
