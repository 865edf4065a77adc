module Sdfg = Sdf.Sdfg
module Rat = Sdf.Rat
module Repetition = Sdf.Repetition
module Cycles = Sdf.Cycles

type result = {
  throughput : Rat.t array;
  period : int;
  iterations_per_period : int;
  transient : int;
  states : int;
}

type partial = {
  reason : Budget.reason;
  explored : int;
  time_reached : int;
  firings : int;
  iteration_upper_bound : Rat.t;
  upper_bound : Rat.t array;
  provably_dead : bool;
  dead_ruled_out : bool;
}

exception Deadlocked
exception State_space_exceeded of int

(* Anytime upper bound on the iteration rate, from the simple cycles of the
   graph alone — no exploration needed, so it is available no matter how
   early a budgeted run stops.

   For a simple cycle C, weight each channel c by 1/(prod(c)·gamma(src c)).
   Consistency (gamma(src)·prod = gamma(dst)·cons) makes the weighted token
   sum S over C invariant under every *completed* firing: a firing of cycle
   actor a removes cons/(prod_in·gamma(src_in)) = 1/gamma(a) at its start
   and returns prod_out/(prod_out·gamma(a)) = 1/gamma(a) at its end; actors
   off the cycle never touch C's channels (both endpoints of a cycle
   channel lie on C). So at any instant the firings in flight on C have
   borrowed at most S0, the initial weighted sum — each firing of a holds
   1/gamma(a) for at least duration d_a. At a sustained iteration rate of
   lambda, actor a starts lambda·gamma(a) firings per time unit, holding
   1/gamma(a) each for d_a: total borrowed mass lambda·Σ_{a∈C} d_a ≤ S0,
   hence lambda ≤ S0 / Σ d_a (Little's law). S0 = 0 means no firing on C
   can ever start: the iteration rate is provably 0. Σ d_a = 0 yields no
   constraint from C. The minimum over the enumerated cycles is sound even
   when enumeration truncates (fewer cycles can only weaken the bound). *)
let cycle_upper_bound ?max_cycles ~durations g =
  let gamma = Repetition.vector_exn g in
  let channels = Sdfg.channels g in
  let enum = Cycles.simple_cycles ?max_cycles g in
  List.fold_left
    (fun best cycle ->
      let tokens_norm =
        List.fold_left
          (fun acc ci ->
            let c = channels.(ci) in
            Rat.add acc
              (Rat.make c.Sdfg.tokens (c.Sdfg.prod * gamma.(c.Sdfg.src))))
          Rat.zero cycle
      in
      (* Each actor of a simple cycle is the source of exactly one of its
         channels, so summing over channel sources visits each actor once. *)
      let duration =
        List.fold_left
          (fun acc ci -> acc + durations channels.(ci).Sdfg.src)
          0 cycle
      in
      let bound =
        if Rat.equal tokens_norm Rat.zero then Rat.zero
        else if duration = 0 then Rat.infinity
        else Rat.div tokens_norm (Rat.of_int duration)
      in
      Rat.min best bound)
    Rat.infinity enum.Cycles.cycles

let validate g exec_times =
  let n = Sdfg.num_actors g in
  if n = 0 then invalid_arg "Selftimed.analyze: empty graph";
  if Array.length exec_times <> n then
    invalid_arg "Selftimed.analyze: exec_times length mismatch";
  Array.iter
    (fun t -> if t < 0 then invalid_arg "Selftimed.analyze: negative execution time")
    exec_times;
  for a = 0 to n - 1 do
    if Sdfg.in_channels g a = [||] then
      invalid_arg
        (Printf.sprintf
           "Selftimed.analyze: actor %s has no input channel (unbounded \
            auto-concurrency)"
           (Sdfg.actor_name g a))
  done

(* ------------------------------------------------------------------ *)
(* The simulator core of the packed engine.

   Self-timed execution is deterministic (maximal progress), so the state
   space is a single chain, walked by one sequential explorer that checks
   each state for recurrence. The simulator keeps the token vector, the
   per-actor FIFO completion rings (for state packing) and a
   completion-event min-heap (for time advance), plus a worklist of fire
   candidates so an instant's firing fixpoint touches only actors that
   received tokens instead of rescanning the whole graph.

   The worklist order differs from the actor-index-order scan of the
   reference ([Check.Selftimed_reference]), and that is sound: within one
   instant each channel has exactly one consumer, so distinct actors'
   firings consume from disjoint channels and only ever add tokens for
   each other — the fired multiset, the fixpoint token vector and the
   per-actor completion rings are order-independent (DESIGN §12). An
   observer therefore sees the instants in time order and each instant's
   multiset of starts, in worklist order. *)

type sim = {
  ops : Engine.Ops.t;
  tokens : int array;
  rings : Engine.Rings.t;
  evq : Engine.Eventq.t;
  counts : int array;
  exec : int array;
  cand : int array;  (* worklist stack of fire candidates *)
  in_cand : bool array;
  mutable ncand : int;
  mutable time : int;
}

let sim_create g exec_times =
  let n = Sdfg.num_actors g in
  {
    ops = Engine.Ops.of_graph g;
    tokens = Array.map (fun c -> c.Sdfg.tokens) (Sdfg.channels g);
    rings = Engine.Rings.create n;
    evq = Engine.Eventq.create ();
    counts = Array.make n 0;
    exec = exec_times;
    cand = Array.init n (fun i -> n - 1 - i);
    in_cand = Array.make n true;
    ncand = n;
    time = 0;
  }

let push_cand s a =
  if not s.in_cand.(a) then begin
    s.in_cand.(a) <- true;
    s.cand.(s.ncand) <- a;
    s.ncand <- s.ncand + 1
  end

let push_successors s a =
  let su = Engine.Ops.successors s.ops a in
  for i = 0 to Array.length su - 1 do
    push_cand s su.(i)
  done

let sim_fixpoint s observer =
  let instant_guard = ref 0 in
  while s.ncand > 0 do
    s.ncand <- s.ncand - 1;
    let a = s.cand.(s.ncand) in
    s.in_cand.(a) <- false;
    while Engine.Ops.enabled s.ops s.tokens a do
      incr instant_guard;
      if !instant_guard > 10_000_000 then
        invalid_arg "Selftimed.analyze: zero-time livelock";
      Engine.Ops.consume s.ops s.tokens a;
      s.counts.(a) <- s.counts.(a) + 1;
      (match observer with Some f -> f s.time a | None -> ());
      if s.exec.(a) = 0 then begin
        Engine.Ops.produce s.ops s.tokens a;
        push_successors s a
      end
      else begin
        let c = s.time + s.exec.(a) in
        Engine.Rings.push s.rings a c;
        Engine.Eventq.push s.evq c a
      end
    done
  done

(* Advance to the next instant and complete everything due then.
   [false] when no firing is outstanding: deadlock. Heap pops at one
   instant may interleave actors arbitrarily; completions commute (they
   only add tokens), so the resulting state is the reference one. *)
let sim_advance s =
  if Engine.Eventq.is_empty s.evq then false
  else begin
    let t = Engine.Eventq.min_time s.evq in
    s.time <- t;
    while
      (not (Engine.Eventq.is_empty s.evq)) && Engine.Eventq.min_time s.evq = t
    do
      let a = Engine.Eventq.pop_min s.evq in
      ignore (Engine.Rings.pop_front s.rings a : int);
      Engine.Ops.produce s.ops s.tokens a;
      push_successors s a
    done;
    true
  end

let sum_counts counts = Array.fold_left ( + ) 0 counts

(* The anytime information a budget-stopped exploration still has. *)
let make_partial ~reason ~explored ~time_reached ~counts g exec_times gamma =
  let n = Array.length counts in
  if Obs.enabled () then begin
    Obs.Counter.add "budget.partials" 1;
    Obs.Counter.add ("budget." ^ Budget.reason_label reason) 1
  end;
  Obs.Trace.instant "budget.trip"
    ~args:
      [
        ("reason", Obs.Event.String (Budget.reason_label reason));
        ("states", Obs.Event.Int explored);
      ];
  let iteration_upper_bound =
    cycle_upper_bound ~durations:(fun a -> exec_times.(a)) g
  in
  let provably_dead = Rat.equal iteration_upper_bound Rat.zero in
  (* A firing, once started, always completes; so if every actor has
     already started a full iteration's worth of firings, a complete
     iteration is executable and self-timed execution cannot deadlock. *)
  let dead_ruled_out =
    (not provably_dead)
    &&
    let ok = ref true in
    for a = 0 to n - 1 do
      if counts.(a) < gamma.(a) then ok := false
    done;
    !ok
  in
  let upper_bound =
    Array.init n (fun a ->
        if Rat.is_infinite iteration_upper_bound then Rat.infinity
        else Rat.mul_int iteration_upper_bound gamma.(a))
  in
  {
    reason;
    explored;
    time_reached;
    firings = sum_counts counts;
    iteration_upper_bound;
    upper_bound;
    provably_dead;
    dead_ruled_out;
  }

(* The packed engine, as an instance of the generic driver: states stream
   through {!Engine.Explore}'s reusable {!Engine.Pack} writer (channel
   token counts, then per-actor length-prefixed rings of time-relative
   completions) into its open-addressing {!Engine.Stateset} whose payload
   words carry the recurrence data (visit time, firing count of actor 0)
   — no Marshal, no string keys, no per-state boxed values. Outstanding
   firings live in {!Engine.Rings} (FIFO: equal execution times make
   completion order follow start order). *)
let analyze_raw ?observer ?(max_states = 2_000_000) ~budget g exec_times =
  validate g exec_times;
  let gamma = Repetition.vector_exn g in
  let n = Sdfg.num_actors g in
  let s = sim_create g exec_times in
  let tokens = s.tokens in
  let rings = s.rings in
  let counts = s.counts in
  let ex = Engine.Explore.create () in
  let pack = Engine.Explore.pack ex in
  let pack_rel c = Engine.Pack.add_uint pack (c - s.time) in
  let encode () =
    Engine.Pack.add_uint_array pack tokens;
    for a = 0 to n - 1 do
      Engine.Pack.add_uint pack (Engine.Rings.length rings a);
      Engine.Rings.iter rings a pack_rel
    done
  in
  (* Telemetry: recorded once per run (never inside the exploration loop),
     so disabled telemetry costs one branch per analysis. *)
  let record_metrics r =
    if Obs.enabled () then begin
      Obs.Counter.add "selftimed.runs" 1;
      Obs.Counter.add "selftimed.states" r.states;
      Obs.Counter.add "selftimed.transient" r.transient;
      Obs.Counter.add "selftimed.period" r.period;
      Obs.Counter.add "selftimed.firings" (sum_counts counts);
      Engine.Explore.record_gauges (Engine.Explore.stats ex)
    end;
    r
  in
  let rel =
    Engine.Explore.
      {
        fire = (fun () -> sim_fixpoint s observer);
        encode;
        payload0 = (fun () -> s.time);
        payload1 = (fun () -> counts.(0));
        advance = (fun () -> sim_advance s);
      }
  in
  match Engine.Explore.run ex ~max_states ~budget rel with
  | Engine.Explore.Recurred { p0 = t0; p1 = c0 } ->
      let period = s.time - t0 in
      let iterations = (counts.(0) - c0) / gamma.(0) in
      assert (counts.(0) - c0 = iterations * gamma.(0));
      let throughput =
        Array.init n (fun a -> Rat.make (iterations * gamma.(a)) period)
      in
      Ok
        (record_metrics
           {
             throughput;
             period;
             iterations_per_period = iterations;
             transient = t0;
             states = Engine.Explore.length ex;
           })
  | Engine.Explore.Deadlocked ->
      Obs.Counter.add "selftimed.deadlocks" 1;
      raise Deadlocked
  | Engine.Explore.Cap_exceeded ->
      Obs.Counter.add "selftimed.cap_aborts" 1;
      raise (State_space_exceeded max_states)
  | Engine.Explore.Budget_stop reason ->
      Error
        (make_partial ~reason ~explored:(Engine.Explore.length ex)
           ~time_reached:s.time ~counts g exec_times gamma)

let analyze_uncached ?observer ?max_states g exec_times =
  match analyze_raw ?observer ?max_states ~budget:Budget.infinite g exec_times with
  | Ok r -> r
  | Error _ -> assert false (* an infinite budget is never exhausted *)

(* The analysis depends only on the graph structure (channel endpoints,
   rates, initial tokens), the execution times and the state cap — never on
   actor or channel names. Leaving names out of the key makes structurally
   identical graphs share cache entries even when they come from different
   applications (e.g. copies of one application in a multi-app workload).
   Encoded with the engine's packer: every field a varint, counts included
   up front, so equal keys decode to equal inputs (injectivity). *)
let cache_key ?(max_states = 2_000_000) g exec_times =
  let p = Engine.Pack.create ~initial:64 () in
  Engine.Pack.add_uint p (Sdfg.num_actors g);
  Engine.Pack.add_uint p (Sdfg.num_channels g);
  Array.iter
    (fun c ->
      Engine.Pack.add_uint p c.Sdfg.src;
      Engine.Pack.add_uint p c.Sdfg.dst;
      Engine.Pack.add_uint p c.Sdfg.prod;
      Engine.Pack.add_uint p c.Sdfg.cons;
      Engine.Pack.add_uint p c.Sdfg.tokens)
    (Sdfg.channels g);
  Array.iter (fun tau -> Engine.Pack.add_int p tau) exec_times;
  Engine.Pack.add_uint p max_states;
  Engine.Pack.contents p

(* Negative outcomes are part of the analysis result, so they are cached
   too, reified as values and replayed as exceptions on a hit. *)
type outcome = Res of result | Dead | Exceeded of int

let cache : outcome Memo.t = Memo.create ~name:"selftimed" ()

let analyze ?observer ?(max_states = 2_000_000) g exec_times =
  match observer with
  | Some _ ->
      (* An observer sees every firing of the transient and periodic
         phases; a cached result cannot replay them. *)
      analyze_uncached ?observer ~max_states g exec_times
  | None -> (
      (* Validation errors are caller bugs, not analysis outcomes: raise
         them before touching the cache. *)
      validate g exec_times;
      let key = cache_key ~max_states g exec_times in
      let outcome =
        Memo.find_or_compute cache ~key (fun () ->
            match analyze_uncached ~max_states g exec_times with
            | r -> Res r
            | exception Deadlocked -> Dead
            | exception State_space_exceeded n -> Exceeded n)
      in
      match outcome with
      | Res r -> r
      | Dead -> raise Deadlocked
      | Exceeded n -> raise (State_space_exceeded n))

let analyze_budgeted ?observer ?(max_states = 2_000_000) ~budget g exec_times =
  match observer with
  | Some _ -> analyze_raw ?observer ~max_states ~budget g exec_times
  | None -> (
      validate g exec_times;
      let key = cache_key ~max_states g exec_times in
      (* Probe the cache first: a completed outcome from an earlier
         (possibly unbudgeted) run answers instantly and consumes no
         budget. On a miss, only completed outcomes are stored — a
         [Partial] reflects this run's budget, not the graph, and must
         never poison the cache. *)
      match Memo.find cache ~key with
      | Some (Res r) -> Ok r
      | Some Dead -> raise Deadlocked
      | Some (Exceeded n) -> raise (State_space_exceeded n)
      | None -> (
          match analyze_raw ~max_states ~budget g exec_times with
          | Ok r as ok ->
              Memo.add cache ~key (Res r);
              ok
          | Error _ as partial -> partial
          | exception Deadlocked ->
              Memo.add cache ~key Dead;
              raise Deadlocked
          | exception State_space_exceeded n ->
              Memo.add cache ~key (Exceeded n);
              raise (State_space_exceeded n)))

let throughput ?max_states g exec_times a =
  (analyze ?max_states g exec_times).throughput.(a)
