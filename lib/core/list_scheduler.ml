module Sdfg = Sdf.Sdfg
module Tile = Platform.Tile
module Archgraph = Platform.Archgraph

exception Deadlocked
exception State_space_exceeded of int

let idle = max_int

(* The engine mirrors Constrained.analyze, with the tile's static order
   replaced by a FIFO ready list: enabled bound firings reserve their input
   tokens and queue; the processor starts them in queue order, one at a
   time, TDMA-gated at the given slice sizes. The recorded start order per
   tile becomes the static-order schedule.

   The instant's fixpoint keeps the round-robin actor-index scan
   (unbound actors, then bound actors, then tiles): the order in which
   bound firings enqueue decides the ready lists and so the schedules, and
   a different scan order would produce different (equally valid) ones.
   The state walk runs on {!Engine.Explore}: token counts, per-actor rings
   of relative unbound completions, and per tile the relative busy time,
   the current actor, the ready list and the wheel phase stream into the
   packed seen-set. Payload word 0 is the state's ordinal, an index into a
   flat log of per-tile trace lengths, so the recurrent state splits each
   trace into prefix and period without a per-state snapshot. *)
let run ?(max_states = 500_000) (ba : Bind_aware.t) =
  let g = ba.Bind_aware.graph in
  let arch = ba.Bind_aware.arch in
  let nt = Archgraph.num_tiles arch in
  let n = Sdfg.num_actors g in
  let tile_of = ba.Bind_aware.tile_of in
  let exec_times = ba.Bind_aware.exec_times in
  let slices = ba.Bind_aware.slices in
  let wheel =
    Array.map (fun (t : Tile.t) -> t.Tile.wheel) (Archgraph.tiles arch)
  in
  let unbound = List.filter (fun a -> tile_of.(a) < 0) (List.init n Fun.id) in
  let bound = List.filter (fun a -> tile_of.(a) >= 0) (List.init n Fun.id) in
  let tokens = Array.map (fun c -> c.Sdfg.tokens) (Sdfg.channels g) in
  let pending = Engine.Rings.create n in
  let events = Engine.Eventq.create () in
  let tile_busy = Array.make nt idle in
  let tile_cur = Array.make nt (-1) in
  let ready = Engine.Rings.create nt in
  let trace = Array.make nt [] in
  (* started actors, reversed *)
  let trace_len = Array.make nt 0 in
  let time = ref 0 in
  let ops = Engine.Ops.of_graph g in
  let enabled a = Engine.Ops.enabled ops tokens a in
  let consume a = Engine.Ops.consume ops tokens a in
  let produce a = Engine.Ops.produce ops tokens a in
  let fire () =
    let guard = ref 0 in
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun a ->
          while enabled a do
            changed := true;
            incr guard;
            if !guard > 10_000_000 then
              invalid_arg "List_scheduler: zero-time livelock";
            consume a;
            let tau = exec_times.(a) in
            if tau = 0 then produce a
            else begin
              let c = !time + tau in
              Engine.Rings.push pending a c;
              Engine.Eventq.push events c a
            end
          done)
        unbound;
      (* Enqueue newly enabled bound firings (tokens reserved on enqueue so
         queue entries are committed firings). *)
      List.iter
        (fun a ->
          while enabled a do
            changed := true;
            incr guard;
            if !guard > 10_000_000 then
              invalid_arg "List_scheduler: ready-list livelock";
            consume a;
            Engine.Rings.push ready tile_of.(a) a
          done)
        bound;
      (* Idle processors pick the head of their ready list. *)
      for t = 0 to nt - 1 do
        if tile_busy.(t) = idle && Engine.Rings.length ready t > 0 then begin
          changed := true;
          let a = Engine.Rings.pop_front ready t in
          trace.(t) <- a :: trace.(t);
          trace_len.(t) <- trace_len.(t) + 1;
          let fin =
            Constrained.tdma_finish ~t:!time ~tau:exec_times.(a) ~w:wheel.(t)
              ~omega:slices.(t)
          in
          if fin = !time then produce a
          else begin
            tile_busy.(t) <- fin;
            tile_cur.(t) <- a
          end
        end
      done
    done
  in
  let ex = Engine.Explore.create () in
  let pack = Engine.Explore.pack ex in
  let cur_width = Engine.Pack.width_for n in
  let phase_width = Array.map Engine.Pack.width_for wheel in
  let gated_wheel =
    Array.init nt (fun t ->
        if wheel.(t) = 0 || slices.(t) >= wheel.(t) then 0 else wheel.(t))
  in
  let pack_rel c = Engine.Pack.add_uint pack (c - !time) in
  let pack_actor a = Engine.Pack.add_fixed pack ~width:cur_width a in
  let encode () =
    Engine.Pack.add_uint_array pack tokens;
    for a = 0 to n - 1 do
      Engine.Pack.add_uint pack (Engine.Rings.length pending a);
      Engine.Rings.iter pending a pack_rel
    done;
    for t = 0 to nt - 1 do
      (* Busy completions are strictly in the future: 0 is the idle
         sentinel. *)
      Engine.Pack.add_uint pack
        (if tile_busy.(t) = idle then 0 else tile_busy.(t) - !time);
      Engine.Pack.add_fixed pack ~width:cur_width (tile_cur.(t) + 1);
      Engine.Pack.add_uint pack (Engine.Rings.length ready t);
      Engine.Rings.iter ready t pack_actor;
      let w = gated_wheel.(t) in
      Engine.Pack.add_fixed pack ~width:phase_width.(t)
        (if w = 0 then 0 else !time mod w)
    done
  in
  (* Trace lengths at each stored state, [nt] words per state ordinal.
     Written at every visit: a revisit only overwrites the unused slot
     after the last stored state. *)
  let lens_log = ref (Array.make (16 * max 1 nt) 0) in
  let log_lens () =
    let k = Engine.Explore.length ex in
    let need = (k + 1) * nt in
    if need > Array.length !lens_log then begin
      let grown = Array.make (max need (2 * Array.length !lens_log)) 0 in
      Array.blit !lens_log 0 grown 0 (Array.length !lens_log);
      lens_log := grown
    end;
    Array.blit trace_len 0 !lens_log (k * nt) nt;
    k
  in
  let advance () =
    let next = ref (Engine.Eventq.min_time events) in
    for t = 0 to nt - 1 do
      if tile_busy.(t) < !next then next := tile_busy.(t)
    done;
    let next = !next in
    if next = idle then false
    else begin
      time := next;
      for t = 0 to nt - 1 do
        if tile_busy.(t) = next then begin
          produce tile_cur.(t);
          tile_busy.(t) <- idle;
          tile_cur.(t) <- -1
        end
      done;
      while Engine.Eventq.min_time events = next do
        let a = Engine.Eventq.pop_min events in
        ignore (Engine.Rings.pop_front pending a : int);
        produce a
      done;
      true
    end
  in
  let rel =
    Engine.Explore.
      { fire; encode; payload0 = log_lens; payload1 = (fun () -> 0); advance }
  in
  match Engine.Explore.run ex ~max_states ~budget:Budget.infinite rel with
  | Engine.Explore.Recurred { p0 = k; _ } ->
      (Array.sub !lens_log (k * nt) nt, Array.map List.rev trace)
  | Engine.Explore.Deadlocked -> raise Deadlocked
  | Engine.Explore.Cap_exceeded -> raise (State_space_exceeded max_states)
  | Engine.Explore.Budget_stop _ -> assert false (* infinite budget *)
  | exception Constrained.Deadlocked -> raise Deadlocked

let raw_schedules ?max_states (ba : Bind_aware.t) =
  let lens0, traces = run ?max_states ba in
  Array.mapi
    (fun t full ->
      let hosts_actor = Array.exists (fun bt -> bt = t) ba.Bind_aware.tile_of in
      if not hosts_actor then None
      else begin
        let split = lens0.(t) in
        let prefix = List.filteri (fun i _ -> i < split) full in
        let period = List.filteri (fun i _ -> i >= split) full in
        if period = [] then raise Deadlocked
        else Some (Schedule.make ~prefix ~period)
      end)
    traces

let schedules ?max_states ba =
  Array.map (Option.map Schedule.compact) (raw_schedules ?max_states ba)
