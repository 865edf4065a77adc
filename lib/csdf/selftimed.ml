module Rat = Sdf.Rat

type result = {
  throughput : Rat.t array;
  period : int;
  transient : int;
  states : int;
}

exception Deadlocked
exception State_space_exceeded of int

let idle = max_int

let validate g taus =
  let n = Graph.num_actors g in
  if n = 0 then invalid_arg "Csdf_selftimed.analyze: empty graph";
  if Array.length taus <> n then
    invalid_arg "Csdf_selftimed.analyze: taus length mismatch";
  Array.iteri
    (fun a per_phase ->
      if Array.length per_phase <> (Graph.actor g a).Graph.phases then
        invalid_arg "Csdf_selftimed.analyze: phase count mismatch";
      Array.iter
        (fun t ->
          if t < 0 then invalid_arg "Csdf_selftimed.analyze: negative time")
        per_phase)
    taus;
  match Graph.repetition g with
  | Graph.Consistent gamma -> gamma
  | Graph.Inconsistent _ -> invalid_arg "Csdf_selftimed.analyze: inconsistent"
  | Graph.Disconnected -> invalid_arg "Csdf_selftimed.analyze: not connected"

(* The phase-wise simulator shared by the packed engine and the retained
   reference: phase-indexed rates, one firing at a time per actor (no
   self-overlap), production using the phase the firing started in. *)
type sim = {
  tokens : int array;
  phase : int array;
  busy : int array;  (* completion time of the in-flight firing, or idle *)
  counts : int array;
  firing_phase : int array;
  mutable time : int;
}

let sim_create g =
  let n = Graph.num_actors g in
  {
    tokens =
      Array.init (Graph.num_channels g) (fun ci ->
          (Graph.channel g ci).Graph.tokens);
    phase = Array.make n 0;
    busy = Array.make n idle;
    counts = Array.make n 0;
    firing_phase = Array.make n 0;
    time = 0;
  }

let sim_enabled g s a =
  s.busy.(a) = idle
  && List.for_all
       (fun ci ->
         let c = Graph.channel g ci in
         s.tokens.(ci) >= c.Graph.cons_seq.(s.phase.(a)))
       (Graph.in_channels g a)

let sim_consume g s a =
  List.iter
    (fun ci ->
      let c = Graph.channel g ci in
      s.tokens.(ci) <- s.tokens.(ci) - c.Graph.cons_seq.(s.phase.(a)))
    (Graph.in_channels g a)

let sim_produce g s a =
  List.iter
    (fun ci ->
      let c = Graph.channel g ci in
      s.tokens.(ci) <- s.tokens.(ci) + c.Graph.prod_seq.(s.firing_phase.(a)))
    (Graph.out_channels g a)

let sim_fixpoint g taus s =
  let n = Graph.num_actors g in
  let guard = ref 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    for a = 0 to n - 1 do
      while sim_enabled g s a do
        changed := true;
        incr guard;
        if !guard > 10_000_000 then
          invalid_arg "Csdf_selftimed.analyze: zero-time livelock";
        sim_consume g s a;
        s.counts.(a) <- s.counts.(a) + 1;
        s.firing_phase.(a) <- s.phase.(a);
        let tau = taus.(a).(s.phase.(a)) in
        s.phase.(a) <- (s.phase.(a) + 1) mod (Graph.actor g a).Graph.phases;
        if tau = 0 then sim_produce g s a else s.busy.(a) <- s.time + tau
      done
    done
  done

(* Advance to the earliest completion and apply everything due then;
   [false] when nothing is outstanding. *)
let sim_advance g s =
  let next = Array.fold_left min idle s.busy in
  if next = idle then false
  else begin
    s.time <- next;
    Array.iteri
      (fun a c ->
        if c = next then begin
          s.busy.(a) <- idle;
          sim_produce g s a
        end)
      s.busy;
    true
  end

let build_result g gamma s ~t0 ~c0 ~states =
  let n = Graph.num_actors g in
  let period = s.time - t0 in
  let iterations = (s.counts.(0) - c0) / gamma.(0) in
  let throughput =
    Array.init n (fun a -> Rat.make (iterations * gamma.(a)) period)
  in
  { throughput; period; transient = t0; states }

(* The pre-engine exploration (Marshal snapshots into a string-keyed
   Hashtbl), retained as the independent half of the
   [diff.csdf-engine-vs-reference] oracle; the packed instance below must
   agree with it exactly. *)
let analyze_reference ?(max_states = 1_000_000) g taus =
  let gamma = validate g taus in
  let s = sim_create g in
  let snapshot () =
    let rel =
      Array.map (fun c -> if c = idle then -1 else c - s.time) s.busy
    in
    Marshal.to_string (s.tokens, s.phase, rel) [ Marshal.No_sharing ]
  in
  let seen : (string, int * int) Hashtbl.t = Hashtbl.create 4096 in
  let rec explore () =
    sim_fixpoint g taus s;
    let key = snapshot () in
    match Hashtbl.find_opt seen key with
    | Some (t0, c0) ->
        build_result g gamma s ~t0 ~c0 ~states:(Hashtbl.length seen)
    | None ->
        if Hashtbl.length seen >= max_states then
          raise (State_space_exceeded max_states);
        Hashtbl.add seen key (s.time, s.counts.(0));
        if not (sim_advance g s) then raise Deadlocked;
        explore ()
  in
  explore ()

(* The packed engine, as an instance of the generic driver: channel token
   counts and per-actor (phase, relative-completion) pairs stream through
   {!Engine.Explore}'s packer. Completions are strictly in the future, so
   0 is free as the idle sentinel of the relative encoding; the phase a
   busy firing started in is derived (the previous phase), never keyed —
   exactly the reference snapshot's information content. *)
let analyze ?(max_states = 1_000_000) g taus =
  let gamma = validate g taus in
  let n = Graph.num_actors g in
  let s = sim_create g in
  let ex = Engine.Explore.create () in
  let pack = Engine.Explore.pack ex in
  let encode () =
    Engine.Pack.add_uint_array pack s.tokens;
    for a = 0 to n - 1 do
      Engine.Pack.add_uint pack s.phase.(a);
      Engine.Pack.add_uint pack
        (if s.busy.(a) = idle then 0 else s.busy.(a) - s.time)
    done
  in
  let rel =
    Engine.Explore.
      {
        fire = (fun () -> sim_fixpoint g taus s);
        encode;
        payload0 = (fun () -> s.time);
        payload1 = (fun () -> s.counts.(0));
        advance = (fun () -> sim_advance g s);
      }
  in
  match Engine.Explore.run ex ~max_states ~budget:Budget.infinite rel with
  | Engine.Explore.Recurred { p0 = t0; p1 = c0 } ->
      build_result g gamma s ~t0 ~c0 ~states:(Engine.Explore.length ex)
  | Engine.Explore.Deadlocked -> raise Deadlocked
  | Engine.Explore.Cap_exceeded -> raise (State_space_exceeded max_states)
  | Engine.Explore.Budget_stop _ -> assert false (* infinite budget *)

let throughput ?max_states g taus a =
  let r = analyze ?max_states g taus in
  Rat.div_int r.throughput.(a) (Graph.actor g a).Graph.phases
