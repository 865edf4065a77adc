module Sdfg = Sdf.Sdfg
module Rat = Sdf.Rat
module Selftimed = Analysis.Selftimed
module Mcr = Analysis.Mcr

let mutant = ref false
let scenario_mutant = ref false

(* The self-timed route, with blow-ups and deadlocks reified. *)
type st_outcome =
  | St of Selftimed.result
  | St_deadlock
  | St_exceeded

let selftimed ?observer ~max_states (c : Case.t) =
  match Selftimed.analyze ?observer ~max_states c.Case.graph c.Case.taus with
  | r -> St r
  | exception Selftimed.Deadlocked -> St_deadlock
  | exception Selftimed.State_space_exceeded _ -> St_exceeded

let selftimed_reference ?observer ~max_states (c : Case.t) =
  let g = c.Case.graph and taus = c.Case.taus in
  match Selftimed_reference.analyze ?observer ~max_states g taus with
  | r -> St r
  | exception Selftimed.Deadlocked -> St_deadlock
  | exception Selftimed.State_space_exceeded _ -> St_exceeded

(* Old-vs-new engine: the packed state-space engine must be behaviorally
   identical to the retained Marshal/Hashtbl reference — same throughput
   vector, period, iteration count, transient, visited-state count, and
   the same deadlock/cap outcomes. Nothing is skipped: a cap abort on one
   side must be a cap abort on the other. *)
let compare_selftimed engine reference =
  match (engine, reference) with
  | St_deadlock, St_deadlock | St_exceeded, St_exceeded -> Oracle.Pass
  | St_deadlock, _ -> Oracle.Fail "engine deadlocks but the reference runs"
  | _, St_deadlock -> Oracle.Fail "reference deadlocks but the engine runs"
  | St_exceeded, _ ->
      Oracle.Fail "engine exceeds the state cap but the reference finishes"
  | _, St_exceeded ->
      Oracle.Fail "reference exceeds the state cap but the engine finishes"
  | St e, St r ->
      if e.Selftimed.period <> r.Selftimed.period then
        Oracle.failf "engine period %d but reference period %d"
          e.Selftimed.period r.Selftimed.period
      else if
        e.Selftimed.iterations_per_period <> r.Selftimed.iterations_per_period
      then
        Oracle.failf "engine iterations %d but reference iterations %d"
          e.Selftimed.iterations_per_period r.Selftimed.iterations_per_period
      else if e.Selftimed.transient <> r.Selftimed.transient then
        Oracle.failf "engine transient %d but reference transient %d"
          e.Selftimed.transient r.Selftimed.transient
      else if e.Selftimed.states <> r.Selftimed.states then
        Oracle.failf "engine explored %d states but the reference %d"
          e.Selftimed.states r.Selftimed.states
      else if
        not
          (Array.for_all2 Rat.equal e.Selftimed.throughput
             r.Selftimed.throughput)
      then Oracle.Fail "engine and reference throughput vectors differ"
      else Oracle.Pass

let engine_vs_reference ~max_states ~rng:_ (c : Case.t) =
  compare_selftimed (selftimed ~max_states c) (selftimed_reference ~max_states c)

let observer_vs_reference ~max_states ~rng:_ (c : Case.t) =
  Validator.observers_agree compare_selftimed
    (fun ~observer -> selftimed ~observer ~max_states c)
    (fun ~observer -> selftimed_reference ~observer ~max_states c)

(* The independent route: HSDF expansion, then Karp's maximum cycle ratio.
   Under the injected mutant, the replay is corrupted by an off-by-one in
   the initial-token count of the first HSDF channel — the kind of silent
   divergence the differential oracle exists to catch. *)
type mcr_outcome =
  | Mcr_rate of int array * Rat.t  (** gamma, iteration rate [1/MCR] *)
  | Mcr_deadlock
  | Mcr_unbounded  (** acyclic or zero-time critical cycle *)

let mcr_route (c : Case.t) =
  let gamma = Sdf.Repetition.vector_exn c.Case.graph in
  let h = Sdf.Hsdf.convert c.Case.graph gamma in
  let hg =
    if !mutant then
      Sdfg.map_tokens h.Sdf.Hsdf.graph (fun ch ->
          if ch.Sdfg.c_idx = 0 then ch.Sdfg.tokens + 1 else ch.Sdfg.tokens)
    else h.Sdf.Hsdf.graph
  in
  let htaus = Sdf.Hsdf.timing h c.Case.taus in
  match Mcr.max_cycle_ratio hg htaus with
  | Mcr.Acyclic -> Mcr_unbounded
  | Mcr.Zero_token_cycle _ -> Mcr_deadlock
  | Mcr.Ratio r ->
      if Rat.compare r Rat.zero <= 0 then Mcr_unbounded
      else Mcr_rate (gamma, Rat.inv r)

let selftimed_vs_mcr ~max_states ~rng:_ (c : Case.t) =
  match (selftimed ~max_states c, mcr_route c) with
  | St_exceeded, _ -> Oracle.Skip "state space exceeded"
  | _, Mcr_unbounded -> Oracle.Skip "no finite MCR bound"
  | St_deadlock, Mcr_deadlock -> Oracle.Pass
  | St_deadlock, Mcr_rate _ ->
      Oracle.Fail "self-timed execution deadlocks but the HSDF MCR is finite"
  | St st, Mcr_deadlock ->
      Oracle.failf
        "MCR found a zero-token HSDF cycle but the self-timed execution \
         runs (period %d)"
        st.Selftimed.period
  | St st, Mcr_rate (gamma, rate) ->
      let n = Sdfg.num_actors c.Case.graph in
      let rec verify a =
        if a >= n then Oracle.Pass
        else
          let expected = Rat.mul_int rate gamma.(a) in
          if Rat.equal st.Selftimed.throughput.(a) expected then verify (a + 1)
          else
            Oracle.failf
              "actor %s: self-timed throughput %s but gamma/MCR predicts %s"
              (Sdfg.actor_name c.Case.graph a)
              (Rat.to_string st.Selftimed.throughput.(a))
              (Rat.to_string expected)
      in
      verify 0

(* Memoized, cache-warm and memo-disabled replays must be outcome- and
   value-identical (PR 2's negative-outcome caching included). *)
let memo_agreement ~max_states ~rng:_ (c : Case.t) =
  let was_enabled = Analysis.Memo.enabled () in
  Fun.protect
    ~finally:(fun () -> Analysis.Memo.set_enabled was_enabled)
    (fun () ->
      Analysis.Memo.set_enabled true;
      Analysis.Memo.clear_all ();
      let cold = selftimed ~max_states c in
      let warm = selftimed ~max_states c in
      Analysis.Memo.set_enabled false;
      let off = selftimed ~max_states c in
      let agree a b =
        match (a, b) with
        | St ra, St rb ->
            ra.Selftimed.period = rb.Selftimed.period
            && ra.Selftimed.transient = rb.Selftimed.transient
            && Array.for_all2 Rat.equal ra.Selftimed.throughput
                 rb.Selftimed.throughput
        | St_deadlock, St_deadlock | St_exceeded, St_exceeded -> true
        | _ -> false
      in
      match cold with
      | St_exceeded when agree cold warm && agree cold off ->
          Oracle.Skip "state space exceeded"
      | _ ->
          if not (agree cold warm) then
            Oracle.Fail "memo replay (cache hit) diverges from cold analysis"
          else if not (agree cold off) then
            Oracle.Fail "memo-disabled analysis diverges from memoized one"
          else Oracle.Pass)

(* Anytime soundness: under a random finite state budget, a partial
   outcome's throughput upper bound must dominate the true throughput
   (computed by the independent reference engine), a [provably_dead]
   verdict must mean the graph really deadlocks, [dead_ruled_out] must
   mean it really does not, and a budgeted run that completes must agree
   with the unbudgeted one. *)
let budget_partial_soundness ~max_states ~rng (c : Case.t) =
  let cap = 1 + Gen.Rng.int rng 64 in
  let budget = Budget.make ~max_states:cap () in
  let budgeted =
    match
      Selftimed.analyze_budgeted ~max_states ~budget c.Case.graph c.Case.taus
    with
    | r -> `Run r
    | exception Selftimed.Deadlocked -> `Deadlock
    | exception Selftimed.State_space_exceeded _ -> `Exceeded
  in
  match (budgeted, selftimed_reference ~max_states c) with
  | `Exceeded, St_exceeded -> Oracle.Skip "state space exceeded"
  | _, St_exceeded -> Oracle.Skip "reference exceeds the state cap"
  | `Exceeded, _ ->
      Oracle.failf
        "budgeted run hit the hard cap (budget %d) but the reference finishes"
        cap
  | `Deadlock, St_deadlock -> Oracle.Pass
  | `Deadlock, St _ ->
      Oracle.Fail "budgeted run deadlocks but the reference runs"
  | `Run (Ok r), St_deadlock ->
      Oracle.failf
        "budgeted run completes (period %d) but the reference deadlocks"
        r.Selftimed.period
  | `Run (Ok r), St ref_r ->
      if
        r.Selftimed.period = ref_r.Selftimed.period
        && Array.for_all2 Rat.equal r.Selftimed.throughput
             ref_r.Selftimed.throughput
      then Oracle.Pass
      else
        Oracle.failf "budgeted complete run (budget %d) diverges from reference"
          cap
  | `Run (Error p), St_deadlock ->
      if p.Selftimed.dead_ruled_out then
        Oracle.Fail "partial outcome rules out deadlock but the graph deadlocks"
      else Oracle.Pass
  | `Run (Error p), St ref_r ->
      if p.Selftimed.provably_dead then
        Oracle.Fail "partial outcome claims provably dead but the graph runs"
      else
        let n = Sdfg.num_actors c.Case.graph in
        let rec verify a =
          if a >= n then Oracle.Pass
          else if
            Rat.is_infinite p.Selftimed.upper_bound.(a)
            || Rat.compare p.Selftimed.upper_bound.(a)
                 ref_r.Selftimed.throughput.(a)
               >= 0
          then verify (a + 1)
          else
            Oracle.failf
              "actor %s: anytime upper bound %s below true throughput %s \
               (budget %d, explored %d)"
              (Sdfg.actor_name c.Case.graph a)
              (Rat.to_string p.Selftimed.upper_bound.(a))
              (Rat.to_string ref_r.Selftimed.throughput.(a))
              cap p.Selftimed.explored
        in
        verify 0

(* ------------------------------------------------------------------ *)
(* Scenario product vs. brute-force enumeration: derive a small scenario
   FSM from the case, build the product automaton a second time with a
   deliberately naive, structurally independent implementation (unsorted
   token lists, chronological one-firing-at-a-time simulation, Hashtbl
   interning), enumerate ALL its simple cycles, and check that the
   engine's Karp-based worst-case rate equals the enumeration's exactly.
   The hidden scenario mutant drops every mode-transition delay on the
   engine's side only; the enumeration keeps them, so any positive delay
   on a critical cycle is a detected divergence. *)

module Sfsm = Scenario.Fsm
module Product = Scenario.Product

(* One mode occurrence, chronological: among the firings still owed to
   the iteration, always perform one with the earliest possible start.
   Kahn determinism makes the result equal to the engine's actor-scan
   fixpoint; nothing else is shared with it. *)
let naive_iteration (fsm : Sfsm.t) m queues =
  let g = fsm.Sfsm.graph in
  let md = fsm.Sfsm.modes.(m) in
  let q = Array.map (fun l -> l) queues in
  let remaining = Array.copy fsm.Sfsm.gamma.(m) in
  let total = ref (Array.fold_left ( + ) 0 remaining) in
  let fmax = ref 0 in
  let start_of a =
    (* None when not enabled; otherwise the earliest possible start *)
    let rec go acc = function
      | [] -> Some acc
      | ci :: rest ->
          let cons = snd md.Sfsm.rates.(ci) in
          let sorted = List.sort compare q.(ci) in
          if List.length sorted < cons then None
          else go (max acc (List.nth sorted (cons - 1))) rest
    in
    go 0 (Array.to_list (Sdfg.in_channels g a))
  in
  let fire a start =
    Array.iter
      (fun ci ->
        let cons = snd md.Sfsm.rates.(ci) in
        let sorted = List.sort compare q.(ci) in
        q.(ci) <- List.filteri (fun i _ -> i >= cons) sorted)
      (Sdfg.in_channels g a);
    let fin = start + md.Sfsm.taus.(a) in
    if fin > !fmax then fmax := fin;
    Array.iter
      (fun ci ->
        let prod = fst md.Sfsm.rates.(ci) in
        q.(ci) <- List.init prod (fun _ -> fin) @ q.(ci))
      (Sdfg.out_channels g a)
  in
  let n = Sdfg.num_actors g in
  let rec run () =
    if !total = 0 then Some (Array.map (List.sort compare) q, !fmax)
    else begin
      let best = ref None in
      for a = 0 to n - 1 do
        if remaining.(a) > 0 then
          match start_of a with
          | None -> ()
          | Some s -> (
              match !best with
              | Some (_, s') when s' <= s -> ()
              | _ -> best := Some (a, s))
      done;
      match !best with
      | None -> None (* the iteration is stuck: deadlock *)
      | Some (a, s) ->
          fire a s;
          remaining.(a) <- remaining.(a) - 1;
          decr total;
          run ()
    end
  in
  run ()

type naive_product =
  | Np_too_big
  | Np_dead
  | Np_graph of int * (int * int * int) list  (** states, (src,dst,weight) *)

let naive_product (fsm : Sfsm.t) ~cap =
  let tbl = Hashtbl.create 64 in
  let next = ref 0 in
  let edges = ref [] in
  let work = Queue.create () in
  let intern key =
    match Hashtbl.find_opt tbl key with
    | Some id -> (id, false)
    | None ->
        let id = !next in
        incr next;
        Hashtbl.add tbl key id;
        (id, true)
  in
  let initial =
    ( fsm.Sfsm.initial,
      Array.map
        (fun (c : Sdfg.channel) -> List.init c.Sdfg.tokens (fun _ -> 0))
        (Sdfg.channels fsm.Sfsm.graph) )
  in
  let id0, _ = intern initial in
  Queue.add (id0, initial) work;
  let exception Dead in
  let exception Too_big in
  match
    while not (Queue.is_empty work) do
      let id, (m, queues) = Queue.pop work in
      match naive_iteration fsm m queues with
      | None -> raise Dead
      | Some (q, f) ->
          Array.iter
            (fun (dst, delay) ->
              let clamped =
                if delay = 0 then q
                else Array.map (List.map (max (f + delay))) q
              in
              let mn =
                Array.fold_left (List.fold_left min) max_int clamped
              in
              let shift = if mn = max_int then 0 else mn in
              let norm =
                if shift = 0 then clamped
                else Array.map (List.map (fun ts -> ts - shift)) clamped
              in
              let sid, fresh = intern (dst, norm) in
              edges := (id, sid, shift) :: !edges;
              if fresh then begin
                if !next > cap then raise Too_big;
                Queue.add (sid, (dst, norm)) work
              end)
            fsm.Sfsm.out.(m)
    done
  with
  | () -> Np_graph (!next, !edges)
  | exception Dead -> Np_dead
  | exception Too_big -> Np_too_big

(* Every simple cycle, rooted at its minimal vertex so each is found
   exactly once; [`Best (weight, length)] maximises weight/length. *)
let enumerate_cycles n edges ~cap =
  let adj = Array.make n [] in
  List.iter (fun (s, d, w) -> adj.(s) <- (d, w) :: adj.(s)) edges;
  let count = ref 0 in
  let best = ref None in
  let onpath = Array.make n false in
  let exception Too_many in
  let rec dfs root v wsum len =
    List.iter
      (fun (u, w) ->
        if u = root then begin
          incr count;
          if !count > cap then raise Too_many;
          let w' = wsum + w and l' = len + 1 in
          match !best with
          | None -> best := Some (w', l')
          | Some (bw, bl) -> if w' * bl > bw * l' then best := Some (w', l')
        end
        else if u > root && not onpath.(u) then begin
          onpath.(u) <- true;
          dfs root u (wsum + w) (len + 1);
          onpath.(u) <- false
        end)
      adj.(v)
  in
  match
    for root = 0 to n - 1 do
      onpath.(root) <- true;
      dfs root root 0 0;
      onpath.(root) <- false
    done
  with
  | () -> `Best (!best, !count)
  | exception Too_many -> `Too_many

let scenario_vs_enumeration ~max_states:_ ~rng (c : Case.t) =
  match Gen.Scenariogen.derive rng c.Case.graph c.Case.taus with
  | exception Invalid_argument _ -> Oracle.Skip "scenario derivation rejected"
  | fsm -> (
      let fsm_engine =
        if !scenario_mutant then
          Sfsm.make ~name:fsm.Sfsm.name ~graph:fsm.Sfsm.graph
            ~modes:fsm.Sfsm.modes
            ~transitions:
              (Array.map
                 (fun tr -> { tr with Sfsm.delay = 0 })
                 fsm.Sfsm.transitions)
            ~initial:fsm.Sfsm.initial
        else fsm
      in
      let engine =
        match Product.analyze ~max_states:5_000 fsm_engine with
        | r -> `Res r
        | exception Product.Deadlocked -> `Dead
        | exception Product.State_space_exceeded _ -> `Exceeded
      in
      match naive_product fsm ~cap:400 with
      | Np_too_big -> Oracle.Skip "product automaton too large to enumerate"
      | Np_dead -> (
          match engine with
          | `Dead -> Oracle.Pass
          | _ ->
              Oracle.Fail
                "enumeration finds a reachable deadlock but the product \
                 engine does not")
      | Np_graph (nstates, edges) -> (
          match engine with
          | `Dead ->
              Oracle.Fail
                "product engine deadlocks but the enumeration explores the \
                 full automaton"
          | `Exceeded ->
              Oracle.failf
                "product engine exceeds its state cap but the enumeration \
                 stores only %d states"
                nstates
          | `Res r ->
              if r.Product.product_states <> nstates then
                Oracle.failf
                  "product engine stores %d states but the enumeration %d"
                  r.Product.product_states nstates
              else (
                match enumerate_cycles nstates edges ~cap:20_000 with
                | `Too_many -> Oracle.Skip "too many simple cycles"
                | `Best (None, _) ->
                    Oracle.Fail
                      "complete product automaton has no cycle (impossible: \
                       every state has a successor)"
                | `Best (Some (w, l), ncycles) ->
                    let naive_rate =
                      if w = 0 then Rat.infinity else Rat.make l w
                    in
                    if Rat.equal r.Product.worst_rate naive_rate then
                      Oracle.Pass
                    else
                      Oracle.failf
                        "worst-case rate %s (Karp on the product) but %s \
                         (max mean over %d enumerated simple cycles)"
                        (Rat.to_string r.Product.worst_rate)
                        (Rat.to_string naive_rate) ncycles)))

let oracles =
  [
    Oracle.{ name = "diff.engine-vs-reference"; run = engine_vs_reference };
    Oracle.{ name = "diff.selftimed-vs-mcr"; run = selftimed_vs_mcr };
    Oracle.{ name = "diff.memo-agreement"; run = memo_agreement };
    Oracle.
      { name = "budget.partial-soundness"; run = budget_partial_soundness };
    Oracle.
      { name = "diff.scenario-vs-enumeration"; run = scenario_vs_enumeration };
  ]
