(* Tarjan's algorithm, iterative to be safe on deep graphs. *)
let sccs g =
  let n = Sdfg.num_actors g in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let next_index = ref 0 in
  let components = ref [] in
  (* Explicit DFS stack: (actor, remaining successor channels). *)
  let strongconnect v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack := v :: !stack;
    on_stack.(v) <- true;
    let work = ref [ (v, Array.to_list (Sdfg.out_channels g v)) ] in
    let rec loop () =
      match !work with
      | [] -> ()
      | (u, []) :: rest ->
          work := rest;
          (match rest with
          | (p, _) :: _ -> lowlink.(p) <- min lowlink.(p) lowlink.(u)
          | [] -> ());
          if lowlink.(u) = index.(u) then begin
            let rec pop acc =
              match !stack with
              | w :: tl ->
                  stack := tl;
                  on_stack.(w) <- false;
                  if w = u then w :: acc else pop (w :: acc)
              | [] -> assert false
            in
            components := pop [] :: !components
          end;
          loop ()
      | (u, ci :: cis) :: rest ->
          work := (u, cis) :: rest;
          let w = (Sdfg.channel g ci).Sdfg.dst in
          if index.(w) = -1 then begin
            index.(w) <- !next_index;
            lowlink.(w) <- !next_index;
            incr next_index;
            stack := w :: !stack;
            on_stack.(w) <- true;
            work := (w, Array.to_list (Sdfg.out_channels g w)) :: !work
          end
          else if on_stack.(w) then lowlink.(u) <- min lowlink.(u) index.(w);
          loop ()
    in
    loop ()
  in
  for v = 0 to n - 1 do
    if index.(v) = -1 then strongconnect v
  done;
  List.rev !components

let scc_of g =
  let comps = sccs g in
  let ids = Array.make (Sdfg.num_actors g) (-1) in
  List.iteri (fun i comp -> List.iter (fun a -> ids.(a) <- i) comp) comps;
  ids

type enumeration = { cycles : int list list; truncated : bool }

exception Capped

(* Enumerate simple cycles by DFS: a cycle is reported from its smallest
   actor index, and the search from start [s] only visits actors >= s, so
   each cycle is found exactly once. Channels are part of the cycle identity
   (parallel channels yield distinct cycles), which Eqn. 1 needs because
   parallel channels may carry different token counts. *)
let simple_cycles ?(max_cycles = 100_000) g =
  let n = Sdfg.num_actors g in
  let comp = scc_of g in
  let found = ref [] in
  let count = ref 0 in
  let emit path = (* path is reversed channel list *)
    if !count >= max_cycles then raise Capped;
    incr count;
    found := List.rev path :: !found
  in
  let on_path = Array.make n false in
  let rec dfs s v path =
    Array.iter
      (fun ci ->
        let c = Sdfg.channel g ci in
        let w = c.Sdfg.dst in
        if w = s then emit (ci :: path)
        else if w > s && (not on_path.(w)) && comp.(w) = comp.(s) then begin
          on_path.(w) <- true;
          dfs s w (ci :: path);
          on_path.(w) <- false
        end)
      (Sdfg.out_channels g v)
  in
  let truncated =
    try
      for s = 0 to n - 1 do
        on_path.(s) <- true;
        dfs s s [];
        on_path.(s) <- false
      done;
      false
    with Capped -> true
  in
  { cycles = List.rev !found; truncated }

let cycles_through enumeration g a =
  let touches cyc =
    List.exists
      (fun ci ->
        let c = Sdfg.channel g ci in
        c.Sdfg.src = a || c.Sdfg.dst = a)
      cyc
  in
  List.filter touches enumeration.cycles
