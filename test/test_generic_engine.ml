(* Equivalence suite for the generic packed engine (lib/engine/explore):
   the three analyses that now run as engine instances — self-timed SDF,
   binding-constrained, and phase-wise CSDF — must be observationally
   identical to their retained pre-engine references on random graphs:
   same results, same reified exceptions, the same observer starts at
   every instant, and the same budget partial behavior, across memo and
   jobs configurations. *)

module Sdfg = Sdf.Sdfg
module Rat = Sdf.Rat
module Selftimed = Analysis.Selftimed
module Appgraph = Appmodel.Appgraph
open Helpers

let gen_seed = QCheck2.Gen.int_range 0 1_000_000

let random_case seed =
  let rng = Gen.Rng.create ~seed in
  let app =
    Gen.Sdfgen.generate rng Check.Harness.fuzz_profile
      ~proc_types:Gen.Benchsets.proc_types
      ~name:(Printf.sprintf "ge%d" seed)
  in
  let g = app.Appgraph.graph in
  let taus =
    Array.init (Sdfg.num_actors g) (fun a -> Appgraph.max_exec_time app a)
  in
  (g, taus)

let result_equal (a : Selftimed.result) (b : Selftimed.result) =
  a.Selftimed.period = b.Selftimed.period
  && a.Selftimed.iterations_per_period = b.Selftimed.iterations_per_period
  && a.Selftimed.transient = b.Selftimed.transient
  && a.Selftimed.states = b.Selftimed.states
  && Array.for_all2 Rat.equal a.Selftimed.throughput b.Selftimed.throughput

type outcome = Res of Selftimed.result | Dead | Exceeded

let outcome_of f =
  match f () with
  | r -> Res r
  | exception Selftimed.Deadlocked -> Dead
  | exception Selftimed.State_space_exceeded _ -> Exceeded

let outcome_equal a b =
  match (a, b) with
  | Res ra, Res rb -> result_equal ra rb
  | Dead, Dead | Exceeded, Exceeded -> true
  | _ -> false

let without_memo f =
  let was = Analysis.Memo.enabled () in
  Fun.protect
    ~finally:(fun () -> Analysis.Memo.set_enabled was)
    (fun () ->
      Analysis.Memo.set_enabled false;
      f ())

let with_memo f =
  let was = Analysis.Memo.enabled () in
  Fun.protect
    ~finally:(fun () -> Analysis.Memo.set_enabled was)
    (fun () ->
      Analysis.Memo.set_enabled true;
      Analysis.Memo.clear_all ();
      f ())

(* Results AND the observer calls: the engine instance must report the
   reference's result and start the reference's multiset of actors at
   every instant, the instants in time order. *)
let prop_selftimed_matches_reference =
  qcheck ~count:80 "selftimed per instant == reference (results, observers)"
    gen_seed (fun seed ->
      without_memo @@ fun () ->
      let g, taus = random_case seed in
      let compare e r =
        if outcome_equal e r then Check.Oracle.Pass
        else Check.Oracle.Fail "engine and reference outcomes differ"
      in
      match
        Check.Validator.observers_agree compare
          (fun ~observer ->
            outcome_of (fun () ->
                Selftimed.analyze ~observer ~max_states:50_000 g taus))
          (fun ~observer ->
            outcome_of (fun () ->
                Check.Selftimed_reference.analyze ~observer ~max_states:50_000
                  g taus))
      with
      | Check.Oracle.Pass -> true
      | Check.Oracle.Skip msg | Check.Oracle.Fail msg ->
          QCheck2.Test.fail_report msg)

(* Exception agreement where negative outcomes are common: a tiny state
   cap, and initial tokens halved so a fair share of graphs deadlock. *)
let prop_selftimed_outcomes_agree =
  qcheck ~count:80 "selftimed instance == reference (deadlock, cap)" gen_seed
    (fun seed ->
      without_memo @@ fun () ->
      let g, taus = random_case seed in
      let g = Sdfg.map_tokens g (fun c -> c.Sdfg.tokens / 2) in
      let e =
        outcome_of (fun () -> Selftimed.analyze ~max_states:60 g taus)
      in
      let r =
        outcome_of (fun () ->
            Check.Selftimed_reference.analyze ~max_states:60 g taus)
      in
      outcome_equal e r)

(* Memo (cold, warm, disabled) x jobs (1, 2): every configuration of
   the engine instance returns the reference's result. *)
let prop_selftimed_memo_jobs_configs =
  qcheck ~count:40 "selftimed instance == reference under memo x jobs"
    gen_seed (fun seed ->
      let g, taus = random_case seed in
      let cap = 50_000 in
      let reference =
        outcome_of (fun () ->
            Check.Selftimed_reference.analyze ~max_states:cap g taus)
      in
      let analyze () = Selftimed.analyze ~max_states:cap g taus in
      let runs =
        [
          (fun () -> with_memo analyze);
          (fun () ->
            with_memo (fun () ->
                ignore (outcome_of analyze);
                analyze ()));
          (fun () -> without_memo analyze);
        ]
      in
      (* Coarse parallelism: two pool tasks analyse the same graph at once
         against one shared memo. *)
      let pooled =
        with_memo (fun () ->
            Par.set_jobs 2;
            Fun.protect
              ~finally:(fun () -> Par.set_jobs 1)
              (fun () -> Par.map (fun () -> outcome_of analyze) [ (); () ]))
      in
      List.for_all
        (fun run -> outcome_equal reference (outcome_of run))
        runs
      && List.for_all (outcome_equal reference) pooled)

(* Budget partials: a budgeted engine run that completes equals the
   reference; one that stops early reports a sound anytime bound. *)
let prop_selftimed_budget_partials =
  qcheck ~count:60 "selftimed budget partials sound against reference"
    gen_seed (fun seed ->
      without_memo @@ fun () ->
      let g, taus = random_case seed in
      let cap = 1 + (seed mod 64) in
      let budget = Budget.make ~max_states:cap () in
      let budgeted =
        match Selftimed.analyze_budgeted ~budget ~max_states:50_000 g taus with
        | r -> `Run r
        | exception Selftimed.Deadlocked -> `Dead
        | exception Selftimed.State_space_exceeded _ -> `Exceeded
      in
      match
        ( budgeted,
          outcome_of (fun () ->
              Check.Selftimed_reference.analyze ~max_states:50_000 g taus) )
      with
      | _, Exceeded -> true (* reference overflowed the cap: undecidable *)
      | `Exceeded, _ -> false
      | `Dead, Dead -> true
      | `Dead, _ | `Run (Ok _), Dead -> false
      | `Run (Ok r), Res ref_r -> result_equal r ref_r
      | `Run (Error p), Dead -> not p.Selftimed.dead_ruled_out
      | `Run (Error p), Res ref_r ->
          (not p.Selftimed.provably_dead)
          && p.Selftimed.explored > 0
          && Array.for_all2
               (fun ub thr ->
                 Rat.is_infinite ub || Rat.compare ub thr >= 0)
               p.Selftimed.upper_bound ref_r.Selftimed.throughput)

(* The constrained analysis is validated end to end (binding, slices,
   schedule) by the existing validator oracle; it must never Fail. *)
let prop_constrained_matches_reference =
  qcheck ~count:25 "constrained instance == reference (via validator)"
    gen_seed (fun seed ->
      let rng = Gen.Rng.create ~seed in
      let app =
        Gen.Sdfgen.generate rng Check.Harness.fuzz_profile
          ~proc_types:Gen.Benchsets.proc_types
          ~name:(Printf.sprintf "gc%d" seed)
      in
      let arch = Gen.Benchsets.architecture 0 in
      match
        Check.Validator.constrained_engine_agreement ~max_states:50_000 app
          arch
      with
      | Check.Oracle.Fail _ -> false
      | Check.Oracle.Pass | Check.Oracle.Skip _ -> true)

let csdf_result_equal (a : Csdf.Selftimed.result) (b : Csdf.Selftimed.result)
    =
  a.Csdf.Selftimed.period = b.Csdf.Selftimed.period
  && a.Csdf.Selftimed.transient = b.Csdf.Selftimed.transient
  && a.Csdf.Selftimed.states = b.Csdf.Selftimed.states
  && Array.for_all2 Rat.equal a.Csdf.Selftimed.throughput
       b.Csdf.Selftimed.throughput

let prop_csdf_matches_reference =
  qcheck ~count:60 "csdf instance == reference (results, deadlock, cap)"
    gen_seed (fun seed ->
      let rng = Gen.Rng.create ~seed in
      let g, taus = Gen.Csdfgen.generate rng () in
      let agree_at max_states =
        let run f =
          match f ?max_states:(Some max_states) g taus with
          | r -> `Res r
          | exception Csdf.Selftimed.Deadlocked -> `Dead
          | exception Csdf.Selftimed.State_space_exceeded _ -> `Exceeded
        in
        match (run Csdf.Selftimed.analyze, run Csdf.Selftimed.analyze_reference)
        with
        | `Res a, `Res b -> csdf_result_equal a b
        | `Dead, `Dead | `Exceeded, `Exceeded -> true
        | _ -> false
      in
      agree_at 1_000_000 && agree_at 40)

let suite =
  [
    prop_selftimed_matches_reference;
    prop_selftimed_outcomes_agree;
    prop_selftimed_memo_jobs_configs;
    prop_selftimed_budget_partials;
    prop_constrained_matches_reference;
    prop_csdf_matches_reference;
  ]
