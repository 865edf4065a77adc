module Sdfg = Sdf.Sdfg
module Tile = Platform.Tile
module Archgraph = Platform.Archgraph
module Bind_aware = Core.Bind_aware
module Constrained = Core.Constrained

exception Deadlocked = Core.List_scheduler.Deadlocked
exception State_space_exceeded = Core.List_scheduler.State_space_exceeded

let idle = max_int

(* The pre-engine list scheduler (sorted completion lists, reversed-list
   ready queues, Marshal snapshots into a string-keyed Hashtbl), kept as
   the independent half of [diff.list-scheduler-vs-reference]. *)
let walk ?(max_states = 500_000) (ba : Bind_aware.t) =
  let g = ba.Bind_aware.graph in
  let arch = ba.Bind_aware.arch in
  let nt = Archgraph.num_tiles arch in
  let n = Sdfg.num_actors g in
  let unbound =
    Array.to_list (Array.init n Fun.id)
    |> List.filter (fun a -> ba.Bind_aware.tile_of.(a) < 0)
  in
  let bound =
    Array.to_list (Array.init n Fun.id)
    |> List.filter (fun a -> ba.Bind_aware.tile_of.(a) >= 0)
  in
  let tokens = Array.map (fun c -> c.Sdfg.tokens) (Sdfg.channels g) in
  let pending = Array.make n [] in
  let tile_busy = Array.make nt idle in
  let tile_cur = Array.make nt (-1) in
  let ready = Array.make nt [] in
  (* FIFO, reversed: enqueue with cons *)
  let trace = Array.make nt [] in
  (* started actors, reversed *)
  let trace_len = Array.make nt 0 in
  let time = ref 0 in
  let ops = Engine.Ops.of_graph g in
  let enabled a = Engine.Ops.enabled ops tokens a in
  let consume a = Engine.Ops.consume ops tokens a in
  let produce a = Engine.Ops.produce ops tokens a in
  let insert_sorted = Engine.Ops.insert_sorted in
  let start_fixpoint () =
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
            let tau = ba.Bind_aware.exec_times.(a) in
            if tau = 0 then produce a
            else pending.(a) <- insert_sorted (!time + tau) pending.(a)
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
            ready.(ba.Bind_aware.tile_of.(a)) <-
              a :: ready.(ba.Bind_aware.tile_of.(a))
          done)
        bound;
      (* Idle processors pick the head of their ready list. *)
      for t = 0 to nt - 1 do
        if tile_busy.(t) = idle && ready.(t) <> [] then begin
          changed := true;
          let rec split_last acc = function
            | [ x ] -> (x, List.rev acc)
            | x :: rest -> split_last (x :: acc) rest
            | [] -> assert false
          in
          let a, rest = split_last [] ready.(t) in
          ready.(t) <- rest;
          trace.(t) <- a :: trace.(t);
          trace_len.(t) <- trace_len.(t) + 1;
          let tile = Archgraph.tile arch t in
          let fin =
            Constrained.tdma_finish ~t:!time ~tau:ba.Bind_aware.exec_times.(a)
              ~w:tile.Tile.wheel ~omega:ba.Bind_aware.slices.(t)
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
  let snapshot () =
    let rel = Array.map (List.map (fun c -> c - !time)) pending in
    let busy_rel =
      Array.map (fun c -> if c = idle then -1 else c - !time) tile_busy
    in
    let phases =
      Array.init nt (fun t ->
          let w = (Archgraph.tile arch t).Tile.wheel in
          if w = 0 || ba.Bind_aware.slices.(t) >= w then 0 else !time mod w)
    in
    Marshal.to_string
      ( Array.copy tokens,
        rel,
        busy_rel,
        Array.copy tile_cur,
        Array.copy ready,
        phases )
      [ Marshal.No_sharing ]
  in
  let seen : (string, int array) Hashtbl.t = Hashtbl.create 4096 in
  let rec explore () =
    start_fixpoint ();
    let key = snapshot () in
    match Hashtbl.find_opt seen key with
    | Some lens0 -> (lens0, Array.map (fun l -> List.rev l) trace)
    | None ->
        if Hashtbl.length seen >= max_states then
          raise (State_space_exceeded max_states);
        Hashtbl.add seen key (Array.copy trace_len);
        let next =
          Array.fold_left
            (fun acc l -> match l with [] -> acc | c :: _ -> min acc c)
            (Array.fold_left min idle tile_busy)
            pending
        in
        if next = idle then raise Deadlocked;
        time := next;
        Array.iteri
          (fun t c ->
            if c = !time then begin
              produce tile_cur.(t);
              tile_busy.(t) <- idle;
              tile_cur.(t) <- -1
            end)
          tile_busy;
        Array.iteri
          (fun a l ->
            let rec settle = function
              | c :: rest when c = !time ->
                  produce a;
                  settle rest
              | l -> l
            in
            pending.(a) <- settle l)
          pending;
        explore ()
  in
  explore ()

let run ?max_states ba =
  try walk ?max_states ba with Constrained.Deadlocked -> raise Deadlocked
