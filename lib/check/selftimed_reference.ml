module Sdfg = Sdf.Sdfg
module Rat = Sdf.Rat
module Selftimed = Analysis.Selftimed

let analyze ?observer ?(max_states = 2_000_000) g exec_times =
  Selftimed.validate g exec_times;
  let gamma = Sdf.Repetition.vector_exn g in
  let n = Sdfg.num_actors g in
  let ops = Engine.Ops.of_graph g in
  let tokens = Array.map (fun c -> c.Sdfg.tokens) (Sdfg.channels g) in
  let active = Array.make n [] in
  let counts = Array.make n 0 in
  let time = ref 0 in
  let seen : (string, int * int array) Hashtbl.t = Hashtbl.create 4096 in
  (* Start every enabled firing; zero-time firings complete on the spot and
     may enable more starts, hence the fixpoint. The guard protects against
     zero-time livelock (a token-producing cycle of zero-time actors). *)
  let start_fixpoint () =
    let instant_guard = ref 0 in
    let progress = ref true in
    while !progress do
      progress := false;
      for a = 0 to n - 1 do
        while Engine.Ops.enabled ops tokens a do
          progress := true;
          incr instant_guard;
          if !instant_guard > 10_000_000 then
            invalid_arg "Selftimed.analyze: zero-time livelock";
          Engine.Ops.consume ops tokens a;
          counts.(a) <- counts.(a) + 1;
          (match observer with Some f -> f !time a | None -> ());
          if exec_times.(a) = 0 then Engine.Ops.produce ops tokens a
          else active.(a) <- Engine.Ops.insert_sorted exec_times.(a) active.(a)
        done
      done
    done
  in
  let snapshot () =
    Marshal.to_string (tokens, active) [ Marshal.No_sharing ]
  in
  let rec explore () =
    start_fixpoint ();
    let key = snapshot () in
    match Hashtbl.find_opt seen key with
    | Some (t0, counts0) ->
        let period = !time - t0 in
        let iterations = (counts.(0) - counts0.(0)) / gamma.(0) in
        assert (counts.(0) - counts0.(0) = iterations * gamma.(0));
        let throughput =
          Array.init n (fun a -> Rat.make (iterations * gamma.(a)) period)
        in
        ({
           throughput;
           period;
           iterations_per_period = iterations;
           transient = t0;
           states = Hashtbl.length seen;
         }
          : Selftimed.result)
    | None ->
        if Hashtbl.length seen >= max_states then
          raise (Selftimed.State_space_exceeded max_states);
        Hashtbl.add seen key (!time, Array.copy counts);
        (* Advance to the earliest completion. *)
        let dt =
          Array.fold_left
            (fun acc l -> match l with [] -> acc | r :: _ -> min acc r)
            max_int active
        in
        if dt = max_int then raise Selftimed.Deadlocked;
        time := !time + dt;
        for a = 0 to n - 1 do
          let rec settle = function
            | r :: rest when r = dt ->
                Engine.Ops.produce ops tokens a;
                settle rest
            | l -> List.map (fun r -> r - dt) l
          in
          active.(a) <- settle active.(a)
        done;
        explore ()
  in
  explore ()
