module Sdfg = Sdf.Sdfg
module Rat = Sdf.Rat

type result = {
  worst_rate : Rat.t;
  product_states : int;
  product_edges : int;
}

type partial = { reason : Budget.reason; explored : int; upper_bound : Rat.t }

exception Deadlocked
exception State_space_exceeded of int

exception Budget_hit of Budget.reason
(* Internal: unwinds the BFS when the budget runs out. *)

(* ------------------------------------------------------------------ *)
(* One mode occurrence in token-timestamp semantics. A channel is the
   ascending list of its tokens' ready times; a firing starts at the max
   over its input channels of the cons-th earliest ready time, consumes
   those tokens, and produces tokens ready at start + tau. The iteration
   fires actor [a] exactly [gamma m a] times. The result is evaluation-
   order independent (Kahn determinism): every channel has one producer
   and one consumer, consumption always takes the earliest tokens of the
   final multiset, and start times are monotone in the consumed ready
   times — so the actor-scan fixpoint below computes the unique least
   solution, auto-concurrency included (several firings of one actor may
   overlap unless a self-loop serializes them). *)

let simulate (fsm : Fsm.t) m (queues : int list array) =
  let g = fsm.Fsm.graph in
  let n = Sdfg.num_actors g in
  let md = fsm.Fsm.modes.(m) in
  let q = Array.copy queues in
  let qlen = Array.map List.length q in
  let remaining = Array.copy fsm.Fsm.gamma.(m) in
  let total = ref (Array.fold_left ( + ) 0 remaining) in
  let fmax = ref 0 in
  let rec nth_ready l k =
    match l with
    | x :: _ when k = 1 -> x
    | _ :: tl -> nth_ready tl (k - 1)
    | [] -> assert false
  in
  let rec drop l k =
    if k = 0 then l
    else match l with _ :: tl -> drop tl (k - 1) | [] -> assert false
  in
  let enabled a =
    let ins = Sdfg.in_channels g a in
    let ok = ref true in
    for i = 0 to Array.length ins - 1 do
      if qlen.(ins.(i)) < snd md.Fsm.rates.(ins.(i)) then ok := false
    done;
    !ok
  in
  let fire a =
    let start =
      Array.fold_left
        (fun acc ci -> max acc (nth_ready q.(ci) (snd md.Fsm.rates.(ci))))
        0 (Sdfg.in_channels g a)
    in
    Array.iter
      (fun ci ->
        let cons = snd md.Fsm.rates.(ci) in
        q.(ci) <- drop q.(ci) cons;
        qlen.(ci) <- qlen.(ci) - cons)
      (Sdfg.in_channels g a);
    let fin = start + md.Fsm.taus.(a) in
    if fin > !fmax then fmax := fin;
    Array.iter
      (fun ci ->
        let prod = fst md.Fsm.rates.(ci) in
        for _ = 1 to prod do
          q.(ci) <- Engine.Ops.insert_sorted fin q.(ci)
        done;
        qlen.(ci) <- qlen.(ci) + prod)
      (Sdfg.out_channels g a)
  in
  let progress = ref true in
  while !total > 0 && !progress do
    progress := false;
    for a = 0 to n - 1 do
      while remaining.(a) > 0 && enabled a do
        progress := true;
        fire a;
        remaining.(a) <- remaining.(a) - 1;
        decr total
      done
    done
  done;
  if !total > 0 then raise Deadlocked;
  (q, !fmax)

(* Delay [d > 0] holds every token back to [f + d] (occupancy drained at
   [f], reconfiguration for [d]); [d = 0] is a seamless pipelined switch.
   The clamp is monotone, so ascending lists stay ascending. *)
let clamp d f queues =
  if d = 0 then queues
  else
    let floor_t = f + d in
    Array.map (List.map (fun ts -> if ts < floor_t then floor_t else ts)) queues

(* Shift the time frame so the earliest token sits at 0; the shift is the
   edge weight (real elapsed time is the drift of the frame, summed over
   a cycle it is exactly the cycle's duration). *)
let normalize queues =
  let m =
    Array.fold_left (fun acc l -> List.fold_left min acc l) max_int queues
  in
  if m = max_int || m = 0 then (queues, 0)
  else (Array.map (List.map (fun ts -> ts - m)) queues, m)

(* ------------------------------------------------------------------ *)
(* Maximum cycle mean of the explored product digraph: Kosaraju SCCs,
   then Karp's theorem per non-trivial SCC. Karp needs D_k(v) for every
   k; rather than O(V^2) memory for all rows, the rows are computed
   twice — once keeping only D_N, once replaying k = 0..N-1 while
   folding the per-vertex min of (D_N(v) - D_k(v)) / (N - k) — for O(V)
   memory at twice the O(V·E) time. Means are compared exactly by cross
   multiplication. *)

let neg_inf = min_int

let sccs n adj radj =
  let visited = Array.make n false in
  let order = Array.make n 0 in
  let onum = ref 0 in
  for s = 0 to n - 1 do
    if not visited.(s) then begin
      visited.(s) <- true;
      let stack = ref [ (s, ref adj.(s)) ] in
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | (v, rest) :: tl -> (
            match !rest with
            | [] ->
                order.(!onum) <- v;
                incr onum;
                stack := tl
            | u :: more ->
                rest := more;
                if not visited.(u) then begin
                  visited.(u) <- true;
                  stack := (u, ref adj.(u)) :: !stack
                end)
      done
    end
  done;
  let comp = Array.make n (-1) in
  let ncomp = ref 0 in
  for i = n - 1 downto 0 do
    let s = order.(i) in
    if comp.(s) < 0 then begin
      let c = !ncomp in
      incr ncomp;
      comp.(s) <- c;
      let stack = ref [ s ] in
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | v :: tl ->
            stack := tl;
            List.iter
              (fun u ->
                if comp.(u) < 0 then begin
                  comp.(u) <- c;
                  stack := u :: !stack
                end)
              radj.(v)
      done
    end
  done;
  (comp, !ncomp)

(* [max_cycle_mean n esrc edst ew] is [Some (num, den)] — the maximum
   over cycles of (total weight / length) — or [None] if acyclic. *)
let max_cycle_mean n esrc edst ew =
  let ne = Array.length esrc in
  if n = 0 || ne = 0 then None
  else begin
    let adj = Array.make n [] and radj = Array.make n [] in
    for i = ne - 1 downto 0 do
      adj.(esrc.(i)) <- edst.(i) :: adj.(esrc.(i));
      radj.(edst.(i)) <- esrc.(i) :: radj.(edst.(i))
    done;
    let comp, ncomp = sccs n adj radj in
    (* Bucket internal edges per component. *)
    let cedges = Array.make ncomp [] in
    let csize = Array.make ncomp 0 in
    Array.iteri (fun v c -> ignore v; csize.(c) <- csize.(c) + 1) comp;
    for i = 0 to ne - 1 do
      let c = comp.(esrc.(i)) in
      if comp.(edst.(i)) = c then cedges.(c) <- i :: cedges.(c)
    done;
    let loc = Array.make n (-1) in
    let best_num = ref 0 and best_den = ref 0 in
    (* best = num/den, den = 0 means "none yet" *)
    let consider num den =
      if !best_den = 0 || num * !best_den > !best_num * den then begin
        best_num := num;
        best_den := den
      end
    in
    for c = 0 to ncomp - 1 do
      let sz = csize.(c) in
      if cedges.(c) <> [] && (sz > 1 || cedges.(c) <> []) then begin
        (* Local numbering of the component's vertices. *)
        let verts = Array.make sz 0 in
        let k = ref 0 in
        for v = 0 to n - 1 do
          if comp.(v) = c then begin
            loc.(v) <- !k;
            verts.(!k) <- v;
            incr k
          end
        done;
        let es =
          List.rev_map
            (fun i -> (loc.(esrc.(i)), loc.(edst.(i)), ew.(i)))
            cedges.(c)
        in
        let relax src dst =
          List.iter
            (fun (u, v, w) ->
              if src.(u) <> neg_inf && src.(u) + w > dst.(v) then
                dst.(v) <- src.(u) + w)
            es
        in
        let d0 () =
          let d = Array.make sz neg_inf in
          d.(0) <- 0;
          d
        in
        (* Pass 1: D_N. *)
        let dn = ref (d0 ()) and tmp = ref (Array.make sz neg_inf) in
        for _ = 1 to sz do
          Array.fill !tmp 0 sz neg_inf;
          relax !dn !tmp;
          let t = !dn in
          dn := !tmp;
          tmp := t
        done;
        let dn = !dn in
        (* Pass 2: fold min_k (D_N(v) - D_k(v)) / (N - k) per vertex. *)
        let mnum = Array.make sz 0 and mden = Array.make sz 0 in
        let dk = ref (d0 ()) and tmp = ref (Array.make sz neg_inf) in
        for k = 0 to sz - 1 do
          for v = 0 to sz - 1 do
            if dn.(v) <> neg_inf && !dk.(v) <> neg_inf then begin
              let num = dn.(v) - !dk.(v) and den = sz - k in
              if mden.(v) = 0 || num * mden.(v) < mnum.(v) * den then begin
                mnum.(v) <- num;
                mden.(v) <- den
              end
            end
          done;
          Array.fill !tmp 0 sz neg_inf;
          relax !dk !tmp;
          let t = !dk in
          dk := !tmp;
          tmp := t
        done;
        for v = 0 to sz - 1 do
          if dn.(v) <> neg_inf && mden.(v) <> 0 then consider mnum.(v) mden.(v)
        done
      end
    done;
    if !best_den = 0 then None else Some (!best_num, !best_den)
  end

(* MCM (time per occurrence) to worst-case rate (occurrences per time).
   A zero-time maximum mean means every reachable cycle is instantaneous:
   the degenerate all-zero-times case, reported as an infinite rate. *)
let rate_of = function
  | None -> Rat.infinity
  | Some (num, _) when num = 0 -> Rat.infinity
  | Some (num, den) -> Rat.make den num

(* ------------------------------------------------------------------ *)

let analyze_raw ?(max_states = 200_000) ~budget (fsm : Fsm.t) =
  let g = fsm.Fsm.graph in
  let nc = Sdfg.num_channels g in
  let seen = Engine.Stateset.create () in
  let pack = Engine.Pack.create () in
  (* Product-state packing: the mode index, then every channel's ready
     times in ascending order — per-channel token counts are invariant
     (each occurrence is a complete iteration), so the layout is uniquely
     decodable against the FSM. *)
  let pack_state m queues =
    Engine.Pack.reset pack;
    Engine.Pack.add_uint pack m;
    for ci = 0 to nc - 1 do
      List.iter (fun ts -> Engine.Pack.add_uint pack ts) queues.(ci)
    done
  in
  let worklist = Queue.create () in
  let esrc = ref [] and edst = ref [] and ew = ref [] in
  let nedges = ref 0 in
  let add_state m queues =
    pack_state m queues;
    let fresh = Engine.Stateset.length seen in
    let revisit, id, _ = Engine.Stateset.find_or_add seen pack ~p0:fresh ~p1:0 in
    if not revisit then begin
      if Engine.Stateset.length seen > max_states then
        raise (State_space_exceeded max_states);
      if not (Budget.is_infinite budget) then begin
        let arena_bytes =
          if Budget.arena_limited budget then Engine.Stateset.arena_bytes seen
          else 0
        in
        match
          Budget.check budget ~states:(Engine.Stateset.length seen) ~arena_bytes
        with
        | Some reason -> raise (Budget_hit reason)
        | None -> ()
      end;
      Queue.add (id, m, queues) worklist
    end;
    id
  in
  let explored_rate () =
    rate_of
      (max_cycle_mean
         (Engine.Stateset.length seen)
         (Array.of_list !esrc) (Array.of_list !edst) (Array.of_list !ew))
  in
  let explore () =
    let initial_queues =
      Array.map
        (fun (c : Sdfg.channel) -> List.init c.Sdfg.tokens (fun _ -> 0))
        (Sdfg.channels g)
    in
    ignore (add_state fsm.Fsm.initial initial_queues : int);
    while not (Queue.is_empty worklist) do
      let id, m, queues = Queue.pop worklist in
      let queues', f = simulate fsm m queues in
      Array.iter
        (fun (dst, delay) ->
          let norm, shift = normalize (clamp delay f queues') in
          let sid = add_state dst norm in
          esrc := id :: !esrc;
          edst := sid :: !edst;
          ew := shift :: !ew;
          incr nedges)
        fsm.Fsm.out.(m)
    done
  in
  match explore () with
  | () ->
      let r =
        {
          worst_rate = explored_rate ();
          product_states = Engine.Stateset.length seen;
          product_edges = !nedges;
        }
      in
      if Obs.enabled () then begin
        Obs.Counter.add "scenario.runs" 1;
        Obs.Counter.add "scenario.modes" (Array.length fsm.Fsm.modes);
        Obs.Counter.add "scenario.product_states" r.product_states;
        Obs.Counter.add "scenario.product_edges" r.product_edges;
        Engine.Explore.record_gauges (Engine.Stateset.stats seen)
      end;
      Ok r
  | exception Deadlocked ->
      Obs.Counter.add "scenario.deadlocks" 1;
      raise Deadlocked
  | exception State_space_exceeded cap ->
      Obs.Counter.add "scenario.cap_aborts" 1;
      raise (State_space_exceeded cap)
  | exception Budget_hit reason ->
      if Obs.enabled () then begin
        Obs.Counter.add "budget.partials" 1;
        Obs.Counter.add ("budget." ^ Budget.reason_label reason) 1
      end;
      Obs.Trace.instant "budget.trip"
        ~args:
          [
            ("reason", Obs.Event.String (Budget.reason_label reason));
            ("states", Obs.Event.Int (Engine.Stateset.length seen));
          ];
      (* Sound upper bound: every cycle already explored can be ridden
         forever by an adversarial scenario sequence, so the best rate
         over the explored cycles dominates the true worst case. *)
      Error
        {
          reason;
          explored = Engine.Stateset.length seen;
          upper_bound = explored_rate ();
        }

(* Structural memo key, mirroring [Selftimed.cache_key]: mode and actor
   names excluded, every count up front, one varint per field. *)
let cache_key ?(max_states = 200_000) (fsm : Fsm.t) =
  let g = fsm.Fsm.graph in
  let p = Engine.Pack.create ~initial:128 () in
  Engine.Pack.add_uint p (Sdfg.num_actors g);
  Engine.Pack.add_uint p (Sdfg.num_channels g);
  Array.iter
    (fun (c : Sdfg.channel) ->
      Engine.Pack.add_uint p c.Sdfg.src;
      Engine.Pack.add_uint p c.Sdfg.dst;
      Engine.Pack.add_uint p c.Sdfg.tokens)
    (Sdfg.channels g);
  Engine.Pack.add_uint p (Array.length fsm.Fsm.modes);
  Array.iter
    (fun (m : Fsm.mode) ->
      Array.iter
        (fun (prod, cons) ->
          Engine.Pack.add_uint p prod;
          Engine.Pack.add_uint p cons)
        m.Fsm.rates;
      Array.iter (fun tau -> Engine.Pack.add_int p tau) m.Fsm.taus)
    fsm.Fsm.modes;
  Engine.Pack.add_uint p (Array.length fsm.Fsm.transitions);
  Array.iter
    (fun (tr : Fsm.transition) ->
      Engine.Pack.add_uint p tr.Fsm.t_src;
      Engine.Pack.add_uint p tr.Fsm.t_dst;
      Engine.Pack.add_uint p tr.Fsm.delay)
    fsm.Fsm.transitions;
  Engine.Pack.add_uint p fsm.Fsm.initial;
  Engine.Pack.add_uint p max_states;
  Engine.Pack.contents p

type outcome = Res of result | Dead | Exceeded of int

let cache : outcome Analysis.Memo.t = Analysis.Memo.create ~name:"scenario" ()

let analyze ?(max_states = 200_000) fsm =
  let key = cache_key ~max_states fsm in
  let outcome =
    Analysis.Memo.find_or_compute cache ~key (fun () ->
        match analyze_raw ~max_states ~budget:Budget.infinite fsm with
        | Ok r -> Res r
        | Error _ -> assert false (* an infinite budget is never exhausted *)
        | exception Deadlocked -> Dead
        | exception State_space_exceeded n -> Exceeded n)
  in
  match outcome with
  | Res r -> r
  | Dead -> raise Deadlocked
  | Exceeded n -> raise (State_space_exceeded n)

let analyze_budgeted ?(max_states = 200_000) ~budget fsm =
  let key = cache_key ~max_states fsm in
  (* Completed outcomes answer from the cache without spending budget;
     partials reflect this run's budget, never the FSM, and are not
     stored. *)
  match Analysis.Memo.find cache ~key with
  | Some (Res r) -> Ok r
  | Some Dead -> raise Deadlocked
  | Some (Exceeded n) -> raise (State_space_exceeded n)
  | None -> (
      match analyze_raw ~max_states ~budget fsm with
      | Ok r as ok ->
          Analysis.Memo.add cache ~key (Res r);
          ok
      | Error _ as partial -> partial
      | exception Deadlocked ->
          Analysis.Memo.add cache ~key Dead;
          raise Deadlocked
      | exception State_space_exceeded n ->
          Analysis.Memo.add cache ~key (Exceeded n);
          raise (State_space_exceeded n))
