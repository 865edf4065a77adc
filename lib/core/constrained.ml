module Sdfg = Sdf.Sdfg
module Rat = Sdf.Rat
module Tile = Platform.Tile
module Archgraph = Platform.Archgraph

type result = { throughput : Rat.t; period : int; transient : int; states : int }

type partial = {
  reason : Budget.reason;
  explored : int;
  time_reached : int;
  upper_bound : Rat.t;
  provably_dead : bool;
}

exception Deadlocked
exception State_space_exceeded of int

let idle = max_int

(* Completion time of a firing of [tau] work started at absolute time [t] on
   a wheel of size [w] whose slice occupies phases [0, omega): work advances
   only inside the slice. Closed form — no per-time-unit stepping. *)
let tdma_finish ~t ~tau ~w ~omega =
  if tau = 0 then t
  else if omega >= w then t + tau
  else if omega <= 0 then raise Deadlocked
  else begin
    let phase = t mod w in
    if phase < omega && tau <= omega - phase then t + tau
    else begin
      (* Work remaining at the start of the next slice. *)
      let slice_start, remaining =
        if phase < omega then (t + (omega - phase) + (w - omega), tau - (omega - phase))
        else (t + (w - phase), tau)
      in
      slice_start + (((remaining - 1) / omega) * w) + ((remaining - 1) mod omega) + 1
    end
  end

let validate (ba : Bind_aware.t) ~schedules =
  let g = ba.Bind_aware.graph in
  let arch = ba.Bind_aware.arch in
  let nt = Archgraph.num_tiles arch in
  let n = Sdfg.num_actors g in
  if Array.length schedules <> nt then
    invalid_arg "Constrained.analyze: schedules length mismatch";
  Array.iteri
    (fun t sched ->
      match sched with
      | None -> ()
      | Some s ->
          let check a =
            if a < 0 || a >= n || ba.Bind_aware.tile_of.(a) <> t then
              invalid_arg
                (Printf.sprintf
                   "Constrained.analyze: schedule of tile %d lists actor %d \
                    not bound to it"
                   t a)
          in
          Array.iter check s.Schedule.prefix;
          Array.iter check s.Schedule.period;
          if (Archgraph.tile arch t).Tile.wheel <= 0 then
            invalid_arg "Constrained.analyze: scheduled tile has no wheel")
    schedules

let norm_offsets (arch : Archgraph.t) nt offsets =
  match offsets with
  | None -> Array.make nt 0
  | Some o ->
      if Array.length o <> nt then
        invalid_arg "Constrained.analyze: offsets length mismatch";
      Array.map2
        (fun off (tile : Tile.t) ->
          if tile.Tile.wheel = 0 then 0
          else ((off mod tile.Tile.wheel) + tile.Tile.wheel) mod tile.Tile.wheel)
        o (Archgraph.tiles arch)

(* The pre-engine exploration (sorted completion lists, Marshal snapshots
   into a string-keyed Hashtbl, a round-robin fixpoint), retained for the
   differential oracles and the exploration microbenchmark; the packed
   engine below must agree with it exactly, up to the order of the
   observer calls within one instant. *)
let analyze_reference ?observer ?offsets ?(max_states = 500_000)
    (ba : Bind_aware.t) ~schedules =
  validate ba ~schedules;
  let g = ba.Bind_aware.graph in
  let arch = ba.Bind_aware.arch in
  let nt = Archgraph.num_tiles arch in
  let n = Sdfg.num_actors g in
  let offsets = norm_offsets arch nt offsets in
  let output_actor = ba.Bind_aware.app.Appmodel.Appgraph.output_actor in
  let ops = Engine.Ops.of_graph g in
  let unbound =
    Array.to_list (Array.init n Fun.id)
    |> List.filter (fun a -> ba.Bind_aware.tile_of.(a) < 0)
  in
  let tokens = Array.map (fun c -> c.Sdfg.tokens) (Sdfg.channels g) in
  let pending = Array.make n [] in
  (* absolute completion times, ascending *)
  let tile_busy = Array.make nt idle in
  let tile_cur = Array.make nt (-1) in
  (* Wake-up time for a tile whose scheduled actor is enabled but whose
     wheel phase is outside the slice: the firing starts (and consumes its
     tokens) only when the slice begins. Derived from the rest of the state,
     so it is not part of the recurrence key. *)
  let tile_wake = Array.make nt idle in
  let sched_pos = Array.make nt 0 in
  let time = ref 0 in
  let out_count = ref 0 in
  let count_start a =
    (match observer with Some f -> f !time a | None -> ());
    if a = output_actor then incr out_count
  in
  let start_fixpoint () =
    let guard = ref 0 in
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun a ->
          while Engine.Ops.enabled ops tokens a do
            changed := true;
            incr guard;
            if !guard > 10_000_000 then
              invalid_arg "Constrained.analyze: zero-time livelock";
            Engine.Ops.consume ops tokens a;
            count_start a;
            let tau = ba.Bind_aware.exec_times.(a) in
            if tau = 0 then Engine.Ops.produce ops tokens a
            else pending.(a) <- Engine.Ops.insert_sorted (!time + tau) pending.(a)
          done)
        unbound;
      Array.iteri
        (fun t sched ->
          match sched with
          | None -> ()
          | Some s ->
              if tile_busy.(t) = idle then begin
                tile_wake.(t) <- idle;
                let a = Schedule.actor_at s sched_pos.(t) in
                if Engine.Ops.enabled ops tokens a then begin
                  let tile = Archgraph.tile arch t in
                  let w = tile.Tile.wheel and omega = ba.Bind_aware.slices.(t) in
                  let phase = (!time + offsets.(t)) mod w in
                  if omega < w && phase >= omega then
                    (* Outside the slice: postpone the start (paper: the
                       firing is postponed; Fig. 5(c) boxes). *)
                    tile_wake.(t) <- !time + (w - phase)
                  else begin
                    changed := true;
                    Engine.Ops.consume ops tokens a;
                    count_start a;
                    let fin =
                      (* Gate in the tile's shifted time frame. *)
                      tdma_finish
                        ~t:(!time + offsets.(t))
                        ~tau:ba.Bind_aware.exec_times.(a) ~w ~omega
                      - offsets.(t)
                    in
                    if fin = !time then Engine.Ops.produce ops tokens a
                    else begin
                      tile_busy.(t) <- fin;
                      tile_cur.(t) <- a
                    end;
                    sched_pos.(t) <- Schedule.advance s sched_pos.(t)
                  end
                end
              end)
        schedules
    done
  in
  let snapshot () =
    let rel = Array.map (List.map (fun c -> c - !time)) pending in
    let busy_rel =
      Array.map (fun c -> if c = idle then -1 else c - !time) tile_busy
    in
    (* The wheel phase matters only where gating can stall work: a tile
       whose slice covers the whole wheel (or hosting nothing) evolves
       phase-independently, and keying on its phase would only delay the
       recurrence (by up to a factor w). *)
    let phases =
      Array.mapi
        (fun t sched ->
          match sched with
          | None -> 0
          | Some _ ->
              let w = (Archgraph.tile arch t).Tile.wheel in
              if ba.Bind_aware.slices.(t) >= w then 0
              else (!time + offsets.(t)) mod w)
        schedules
    in
    Marshal.to_string
      ( Array.copy tokens,
        rel,
        busy_rel,
        Array.copy tile_cur,
        Array.copy sched_pos,
        phases )
      [ Marshal.No_sharing ]
  in
  let seen : (string, int * int) Hashtbl.t = Hashtbl.create 4096 in
  let rec explore () =
    start_fixpoint ();
    let key = snapshot () in
    match Hashtbl.find_opt seen key with
    | Some (t0, out0) ->
        let period = !time - t0 in
        let fired = !out_count - out0 in
        {
          throughput = Rat.make fired period;
          period;
          transient = t0;
          states = Hashtbl.length seen;
        }
    | None ->
        if Hashtbl.length seen >= max_states then
          raise (State_space_exceeded max_states);
        Hashtbl.add seen key (!time, !out_count);
        let next =
          Array.fold_left
            (fun acc l -> match l with [] -> acc | c :: _ -> min acc c)
            (min
               (Array.fold_left min idle tile_busy)
               (Array.fold_left min idle tile_wake))
            pending
        in
        if next = idle then raise Deadlocked;
        time := next;
        Array.iteri
          (fun t c ->
            if c = !time then begin
              Engine.Ops.produce ops tokens tile_cur.(t);
              tile_busy.(t) <- idle;
              tile_cur.(t) <- -1
            end)
          tile_busy;
        Array.iteri
          (fun a l ->
            let rec settle = function
              | c :: rest when c = !time ->
                  Engine.Ops.produce ops tokens a;
                  settle rest
              | l -> l
            in
            pending.(a) <- settle l)
          pending;
        explore ()
  in
  explore ()

(* Minimum time a firing of actor [a] can occupy it: the raw execution
   time for unbound (connection/sync) actors, the TDMA-gated completion
   time of a phase-0 start for bound ones (starting at the top of the
   slice maximises first-slice progress, so any other start phase only
   takes longer). An actor whose slice can never finish its work gets a
   huge-but-finite sentinel: the cycle bound then degrades towards 0
   instead of needing an "infinite duration" representation. *)
let min_duration (ba : Bind_aware.t) a =
  let tau = ba.Bind_aware.exec_times.(a) in
  let t = ba.Bind_aware.tile_of.(a) in
  if t < 0 || tau = 0 then tau
  else begin
    let w = (Archgraph.tile ba.Bind_aware.arch t).Tile.wheel in
    let omega = ba.Bind_aware.slices.(t) in
    if omega >= w then tau
    else if omega <= 0 then 1 lsl 40
    else tdma_finish ~t:0 ~tau ~w ~omega
  end

(* The packed engine: the recurrence state (token counts, per-actor rings
   of time-relative completions, per-tile busy/current/schedule-position/
   wheel-phase words) streams through one reusable {!Engine.Pack} writer
   into an open-addressing {!Engine.Stateset} whose two payload words hold
   the visit time and the output-firing count. Fields with a static
   per-graph bound (schedule positions, wheel phases) are packed at a
   fixed per-tile byte width; the unbounded ones are varints.

   The simulation step follows the self-timed engine's per-state
   discipline (DESIGN §12). Unbound (connection/sync) actors fire from a
   candidate stack fed only with the successors of actors that produced
   tokens; a tile is re-examined only when it is marked dirty (it became
   idle, its wake time came, it finished a zero-time firing, or an actor
   bound to it received tokens). Unbound completions sit in an
   {!Engine.Eventq} next to the per-actor FIFO {!Engine.Rings} the state
   encoding reads; a bound actor's TDMA completions are monotone per tile
   (one firing at a time) and live in [tile_busy]. *)
let analyze_raw ?observer ?offsets ?(max_states = 500_000) ~budget
    (ba : Bind_aware.t) ~schedules =
  validate ba ~schedules;
  let g = ba.Bind_aware.graph in
  let arch = ba.Bind_aware.arch in
  let nt = Archgraph.num_tiles arch in
  let n = Sdfg.num_actors g in
  let offsets = norm_offsets arch nt offsets in
  let output_actor = ba.Bind_aware.app.Appmodel.Appgraph.output_actor in
  let ops = Engine.Ops.of_graph g in
  let tile_of = ba.Bind_aware.tile_of in
  let exec_times = ba.Bind_aware.exec_times in
  let slices = ba.Bind_aware.slices in
  let wheel =
    Array.map (fun (t : Tile.t) -> t.Tile.wheel) (Archgraph.tiles arch)
  in
  (* The wheel phase is part of the state only where gating can stall
     work: a scheduled tile whose slice does not cover its wheel (see the
     reference engine). 0 marks the phase-independent tiles. *)
  let gated_wheel =
    Array.init nt (fun t ->
        match schedules.(t) with
        | Some _ when slices.(t) < wheel.(t) -> wheel.(t)
        | _ -> 0)
  in
  let tokens = Array.map (fun c -> c.Sdfg.tokens) (Sdfg.channels g) in
  let pending = Engine.Rings.create n in
  let events = Engine.Eventq.create () in
  let tile_busy = Array.make nt idle in
  let tile_cur = Array.make nt (-1) in
  (* Wake-up time of an idle tile whose scheduled actor is enabled outside
     its slice. Not part of the recurrence key: it is derived from the
     rest of the state (see the reference engine). *)
  let tile_wake = Array.make nt idle in
  let sched_pos = Array.make nt 0 in
  (* Static per-tile bounds for the fixed-width fields. *)
  let pos_width =
    Array.map
      (function
        | None -> 1
        | Some s ->
            Engine.Pack.width_for
              (Array.length s.Schedule.prefix + Array.length s.Schedule.period))
      schedules
  in
  let phase_width = Array.map Engine.Pack.width_for wheel in
  let cur_width = Engine.Pack.width_for n in
  let time = ref 0 in
  let out_count = ref 0 in
  let fired = ref 0 in
  (* Candidate stack of unbound actors, seeded with all of them (lowest
     index on top), and the dirty-tile stack, seeded with every tile. *)
  let cand = Array.make n 0 and in_cand = Array.make n false in
  let ncand = ref 0 in
  let push_cand a =
    if not in_cand.(a) then begin
      in_cand.(a) <- true;
      cand.(!ncand) <- a;
      incr ncand
    end
  in
  for a = n - 1 downto 0 do
    if tile_of.(a) < 0 then push_cand a
  done;
  let dirty = Array.make nt true in
  let dstack = Array.init nt (fun i -> nt - 1 - i) in
  let ndirty = ref nt in
  let mark t =
    if not dirty.(t) then begin
      dirty.(t) <- true;
      dstack.(!ndirty) <- t;
      incr ndirty
    end
  in
  let produced a =
    Engine.Ops.produce ops tokens a;
    let su = Engine.Ops.successors ops a in
    for i = 0 to Array.length su - 1 do
      let b = su.(i) in
      let t = tile_of.(b) in
      if t < 0 then push_cand b else mark t
    done
  in
  let count_start a =
    (match observer with Some f -> f !time a | None -> ());
    incr fired;
    if a = output_actor then incr out_count
  in
  let guard = ref 0 in
  let bump_guard () =
    incr guard;
    if !guard > 10_000_000 then
      invalid_arg "Constrained.analyze: zero-time livelock"
  in
  let fire_unbound a =
    while Engine.Ops.enabled ops tokens a do
      bump_guard ();
      Engine.Ops.consume ops tokens a;
      count_start a;
      let tau = exec_times.(a) in
      if tau = 0 then produced a
      else begin
        let c = !time + tau in
        Engine.Rings.push pending a c;
        Engine.Eventq.push events c a
      end
    done
  in
  (* One look at an idle tile: start its scheduled actor if enabled and
     inside the slice, or cache the absolute wake time if enabled outside
     it. A cached wake stays valid until it is reached: the scheduled
     actor's inputs only grow until the tile fires it. *)
  let step_tile t s =
    if tile_busy.(t) = idle then begin
      tile_wake.(t) <- idle;
      let a = Schedule.actor_at s sched_pos.(t) in
      if Engine.Ops.enabled ops tokens a then begin
        let w = wheel.(t) and omega = slices.(t) in
        let phase = (!time + offsets.(t)) mod w in
        if omega < w && phase >= omega then tile_wake.(t) <- !time + (w - phase)
        else begin
          bump_guard ();
          Engine.Ops.consume ops tokens a;
          count_start a;
          let fin =
            tdma_finish ~t:(!time + offsets.(t)) ~tau:exec_times.(a) ~w ~omega
            - offsets.(t)
          in
          sched_pos.(t) <- Schedule.advance s sched_pos.(t);
          if fin = !time then begin
            produced a;
            mark t
          end
          else begin
            tile_busy.(t) <- fin;
            tile_cur.(t) <- a
          end
        end
      end
    end
  in
  let fire () =
    guard := 0;
    while !ncand > 0 || !ndirty > 0 do
      while !ncand > 0 do
        decr ncand;
        let a = cand.(!ncand) in
        in_cand.(a) <- false;
        fire_unbound a
      done;
      if !ndirty > 0 then begin
        decr ndirty;
        let t = dstack.(!ndirty) in
        dirty.(t) <- false;
        match schedules.(t) with None -> () | Some s -> step_tile t s
      end
    done
  in
  let ex = Engine.Explore.create () in
  let pack = Engine.Explore.pack ex in
  let pack_rel c = Engine.Pack.add_uint pack (c - !time) in
  let encode () =
    Engine.Pack.add_uint_array pack tokens;
    for a = 0 to n - 1 do
      Engine.Pack.add_uint pack (Engine.Rings.length pending a);
      Engine.Rings.iter pending a pack_rel
    done;
    for t = 0 to nt - 1 do
      (* Busy completions are strictly in the future, so 0 is free as the
         idle sentinel of this relative encoding. *)
      Engine.Pack.add_uint pack
        (if tile_busy.(t) = idle then 0 else tile_busy.(t) - !time);
      Engine.Pack.add_fixed pack ~width:cur_width (tile_cur.(t) + 1);
      Engine.Pack.add_fixed pack ~width:pos_width.(t) sched_pos.(t);
      let w = gated_wheel.(t) in
      Engine.Pack.add_fixed pack ~width:phase_width.(t)
        (if w = 0 then 0 else (!time + offsets.(t)) mod w)
    done
  in
  (* Telemetry: recorded once per run (never inside the exploration loop),
     so disabled telemetry costs one branch per analysis. *)
  let record_metrics r =
    if Obs.enabled () then begin
      Obs.Counter.add "constrained.runs" 1;
      Obs.Counter.add "constrained.states" r.states;
      Obs.Counter.add "constrained.transient" r.transient;
      Obs.Counter.add "constrained.period" r.period;
      Obs.Counter.add "constrained.firings" !fired;
      Engine.Explore.record_gauges (Engine.Explore.stats ex)
    end;
    r
  in
  (* Advance to the next instant: the earliest unbound completion, tile
     completion or tile wake. Completing tiles and reached wakes mark
     their tile dirty; unbound completions pop off the event heap. *)
  let advance () =
    let next = ref (Engine.Eventq.min_time events) in
    for t = 0 to nt - 1 do
      if tile_busy.(t) < !next then next := tile_busy.(t);
      if tile_wake.(t) < !next then next := tile_wake.(t)
    done;
    let next = !next in
    if next = idle then false
    else begin
      time := next;
      for t = 0 to nt - 1 do
        if tile_busy.(t) = next then begin
          let a = tile_cur.(t) in
          tile_busy.(t) <- idle;
          tile_cur.(t) <- -1;
          produced a;
          mark t
        end
        else if tile_wake.(t) = next then mark t
      done;
      while Engine.Eventq.min_time events = next do
        let a = Engine.Eventq.pop_min events in
        ignore (Engine.Rings.pop_front pending a : int);
        produced a
      done;
      true
    end
  in
  let rel =
    Engine.Explore.
      {
        fire;
        encode;
        payload0 = (fun () -> !time);
        payload1 = (fun () -> !out_count);
        advance;
      }
  in
  match Engine.Explore.run ex ~max_states ~budget rel with
  | Engine.Explore.Recurred { p0 = t0; p1 = out0 } ->
      let period = !time - t0 in
      let fired = !out_count - out0 in
      Ok
        (record_metrics
           {
             throughput = Rat.make fired period;
             period;
             transient = t0;
             states = Engine.Explore.length ex;
           })
  | Engine.Explore.Deadlocked ->
      Obs.Counter.add "constrained.deadlocks" 1;
      raise Deadlocked
  | Engine.Explore.Cap_exceeded ->
      Obs.Counter.add "constrained.cap_aborts" 1;
      (* Both the configured cap and the states actually stored: tooling
         sizing a retry needs the real exploration depth, not just the
         limit it was given. *)
      if Obs.enabled () then
        Obs.Event.emit "constrained.abort"
          [
            ("cap", Obs.Event.Int max_states);
            ("states", Obs.Event.Int (Engine.Explore.length ex));
          ];
      raise (State_space_exceeded max_states)
  | Engine.Explore.Budget_stop reason ->
      if Obs.enabled () then begin
        Obs.Counter.add "budget.partials" 1;
        Obs.Counter.add ("budget." ^ Budget.reason_label reason) 1
      end;
      Obs.Trace.instant "budget.trip"
        ~args:
          [
            ("reason", Obs.Event.String (Budget.reason_label reason));
            ("states", Obs.Event.Int (Engine.Explore.length ex));
          ];
      (* Anytime bound: every firing occupies its actor for at least its
         TDMA-inflated minimum duration, and static-order serialization can
         only slow things further, so the self-timed cycle bound over these
         durations dominates the constrained throughput. *)
      let gamma = Sdf.Repetition.vector_exn g in
      let iter_ub =
        Analysis.Selftimed.cycle_upper_bound ~durations:(min_duration ba) g
      in
      let out_dead = min_duration ba output_actor >= 1 lsl 40 in
      let provably_dead = Rat.equal iter_ub Rat.zero || out_dead in
      let upper_bound =
        if provably_dead then Rat.zero
        else if Rat.is_infinite iter_ub then Rat.infinity
        else Rat.mul_int iter_ub gamma.(output_actor)
      in
      Error
        {
          reason;
          explored = Engine.Explore.length ex;
          time_reached = !time;
          upper_bound;
          provably_dead;
        }

let analyze_uncached ?observer ?offsets ?max_states ba ~schedules =
  match
    analyze_raw ?observer ?offsets ?max_states ~budget:Budget.infinite ba
      ~schedules
  with
  | Ok r -> r
  | Error _ -> assert false (* an infinite budget is never exhausted *)

(* Everything the constrained execution depends on, by structure rather
   than by name: the binding-aware graph (endpoints, rates, tokens), the
   execution times, the binding (tile_of), the TDMA configuration (wheel
   and slice per tile, offsets), the static-order schedules, the output
   actor and the state cap. Names are excluded on purpose so identical
   applications bound identically (multi-app workloads with copies) share
   entries. Encoded with the engine's packer: counts up front and one
   varint per field, so equal keys decode to equal inputs. *)
let cache_key ?offsets ?(max_states = 500_000) (ba : Bind_aware.t) ~schedules =
  let g = ba.Bind_aware.graph in
  let p = Engine.Pack.create ~initial:256 () in
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
  Array.iter (fun tau -> Engine.Pack.add_int p tau) ba.Bind_aware.exec_times;
  Array.iter (fun t -> Engine.Pack.add_int p t) ba.Bind_aware.tile_of;
  Array.iter
    (fun (t : Tile.t) -> Engine.Pack.add_uint p t.Tile.wheel)
    (Archgraph.tiles ba.Bind_aware.arch);
  Array.iter (fun s -> Engine.Pack.add_int p s) ba.Bind_aware.slices;
  Engine.Pack.add_uint p ba.Bind_aware.app.Appmodel.Appgraph.output_actor;
  Engine.Pack.add_uint p (Array.length schedules);
  Array.iter
    (fun sched ->
      match sched with
      | None -> Engine.Pack.add_byte p 0
      | Some s ->
          Engine.Pack.add_byte p 1;
          Engine.Pack.add_uint p (Array.length s.Schedule.prefix);
          Array.iter (fun a -> Engine.Pack.add_uint p a) s.Schedule.prefix;
          Engine.Pack.add_uint p (Array.length s.Schedule.period);
          Array.iter (fun a -> Engine.Pack.add_uint p a) s.Schedule.period)
    schedules;
  (match offsets with
  | None -> Engine.Pack.add_byte p 0
  | Some o ->
      Engine.Pack.add_byte p 1;
      Engine.Pack.add_uint p (Array.length o);
      Array.iter (fun v -> Engine.Pack.add_int p v) o);
  Engine.Pack.add_uint p max_states;
  Engine.Pack.contents p

type outcome = Res of result | Dead | Exceeded of int

let cache : outcome Analysis.Memo.t = Analysis.Memo.create ~name:"constrained" ()

let analyze ?observer ?offsets ?max_states (ba : Bind_aware.t) ~schedules =
  match observer with
  | Some _ ->
      (* Observers replay the firing sequence; a cached result cannot. *)
      analyze_uncached ?observer ?offsets ?max_states ba ~schedules
  | None -> (
      let key = cache_key ?offsets ?max_states ba ~schedules in
      let outcome =
        Analysis.Memo.find_or_compute cache ~key (fun () ->
            (* Invalid_argument (caller bugs) propagates uncached; the
               analysis outcomes — including the negative ones — are
               cached and replayed. *)
            match analyze_uncached ?offsets ?max_states ba ~schedules with
            | r -> Res r
            | exception Deadlocked -> Dead
            | exception State_space_exceeded n -> Exceeded n)
      in
      match outcome with
      | Res r -> r
      | Dead -> raise Deadlocked
      | Exceeded n -> raise (State_space_exceeded n))

let analyze_budgeted ?observer ?offsets ?max_states ~budget (ba : Bind_aware.t)
    ~schedules =
  match observer with
  | Some _ -> analyze_raw ?observer ?offsets ?max_states ~budget ba ~schedules
  | None -> (
      validate ba ~schedules;
      let key = cache_key ?offsets ?max_states ba ~schedules in
      (* Completed outcomes answer from the cache without spending budget;
         only completed outcomes are stored — a partial result reflects
         this run's budget, not the configuration, and must never poison
         the cache. *)
      match Analysis.Memo.find cache ~key with
      | Some (Res r) -> Ok r
      | Some Dead -> raise Deadlocked
      | Some (Exceeded n) -> raise (State_space_exceeded n)
      | None -> (
          match analyze_raw ?offsets ?max_states ~budget ba ~schedules with
          | Ok r as ok ->
              Analysis.Memo.add cache ~key (Res r);
              ok
          | Error _ as partial -> partial
          | exception Deadlocked ->
              Analysis.Memo.add cache ~key Dead;
              raise Deadlocked
          | exception State_space_exceeded n ->
              Analysis.Memo.add cache ~key (Exceeded n);
              raise (State_space_exceeded n)))

let throughput_or_zero ?max_states ?(budget = Budget.infinite) ?on_budget_stop
    ba ~schedules =
  if Budget.is_infinite budget then
    match analyze ?max_states ba ~schedules with
    | r -> r.throughput
    | exception Deadlocked -> Rat.zero
    | exception State_space_exceeded _ -> Rat.zero
  else
    (* A partial outcome proves nothing about the configuration, and the
       slice search must only accept allocations whose throughput is
       certain: treat it as 0, like the other negative outcomes — but
       report it through [on_budget_stop] so the caller can attribute a
       subsequent failure to the budget rather than to infeasibility. *)
    match analyze_budgeted ?max_states ~budget ba ~schedules with
    | Ok r -> r.throughput
    | Error p ->
        (match on_budget_stop with Some f -> f p.reason | None -> ());
        Rat.zero
    | exception Deadlocked -> Rat.zero
    | exception State_space_exceeded _ -> Rat.zero
