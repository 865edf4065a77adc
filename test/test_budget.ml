(* The budget subsystem: budget bookkeeping itself, the anytime contract
   of the budgeted analyses (infinite budget changes nothing; any finite
   budget yields either the unbudgeted result or a sound partial), memo
   non-poisoning, pool cancellation accounting, and the flow-level
   degradation of budget-exhausted rungs. *)

module Rat = Sdf.Rat
module Sdfg = Sdf.Sdfg
module Selftimed = Analysis.Selftimed
module Appgraph = Appmodel.Appgraph
open Helpers

(* ------------------------------- Budget.t ------------------------------ *)

let test_make_infinite () =
  Alcotest.(check bool) "make () is infinite" true (Budget.is_infinite (Budget.make ()));
  Alcotest.(check bool)
    "infinite never exhausted" true
    (Budget.check Budget.infinite ~states:max_int ~arena_bytes:max_int = None);
  Alcotest.(check bool)
    "finite is not infinite" false
    (Budget.is_infinite (Budget.make ~max_states:5 ()))

let reason = Alcotest.testable Budget.pp_reason ( = )

let test_state_cap () =
  let b = Budget.make ~max_states:5 () in
  Alcotest.(check bool) "states limited" true (Budget.states_limited b);
  Alcotest.(check (option reason))
    "under the cap" None
    (Budget.check b ~states:5 ~arena_bytes:0);
  Alcotest.(check (option reason))
    "over the cap" (Some Budget.States)
    (Budget.check b ~states:6 ~arena_bytes:0)

let test_arena_cap () =
  let b = Budget.make ~max_arena_bytes:100 () in
  Alcotest.(check bool) "arena limited" true (Budget.arena_limited b);
  Alcotest.(check bool)
    "states not limited" false (Budget.states_limited b);
  Alcotest.(check (option reason))
    "over the byte cap" (Some Budget.Memory)
    (Budget.check b ~states:0 ~arena_bytes:101)

let test_deadline_and_cancel () =
  let past = Budget.make ~wall_s:(-1.) () in
  (* The first check always probes the clock. *)
  Alcotest.(check (option reason))
    "expired deadline" (Some Budget.Deadline)
    (Budget.check past ~states:0 ~arena_bytes:0);
  Alcotest.(check (option reason))
    "exceeded agrees" (Some Budget.Deadline) (Budget.exceeded past);
  let c = Budget.Cancel.create () in
  let b = Budget.make ~cancel:c () in
  Alcotest.(check (option reason))
    "token untriggered" None
    (Budget.check b ~states:1000 ~arena_bytes:0);
  Budget.Cancel.trigger c;
  Alcotest.(check (option reason))
    "token observed by exceeded" (Some Budget.Cancelled) (Budget.exceeded b)

let test_reason_labels () =
  Alcotest.(check (list string))
    "stable labels"
    [ "deadline"; "states"; "memory"; "cancelled" ]
    (List.map Budget.reason_label
       [ Budget.Deadline; Budget.States; Budget.Memory; Budget.Cancelled ])

(* --------------------- random consistent workloads --------------------- *)

let random_case seed set =
  let rng = Gen.Rng.create ~seed in
  let app =
    Gen.Sdfgen.generate rng
      (Gen.Benchsets.set_profile set)
      ~proc_types:Gen.Benchsets.proc_types
      ~name:(Printf.sprintf "b%d" seed)
  in
  let g = app.Appgraph.graph in
  let taus =
    Array.init (Sdfg.num_actors g) (fun a -> Appgraph.max_exec_time app a)
  in
  (g, taus)

let gen_seed = QCheck2.Gen.int_range 0 1_000_000

(* Everything observable about a completed analysis. *)
let result_key (r : Selftimed.result) =
  ( r.Selftimed.states,
    r.Selftimed.transient,
    r.Selftimed.period,
    r.Selftimed.iterations_per_period,
    Array.to_list (Array.map Rat.to_string r.Selftimed.throughput) )

type outcome =
  | Complete of (int * int * int * int * string list)
  | Partial of Budget.reason
  | Dead
  | Exceeded

let run_budgeted ~budget (g, taus) =
  match Selftimed.analyze_budgeted ~max_states:20_000 ~budget g taus with
  | Ok r -> Complete (result_key r)
  | Error p -> Partial p.Selftimed.reason
  | exception Selftimed.Deadlocked -> Dead
  | exception Selftimed.State_space_exceeded _ -> Exceeded

let run_unbudgeted (g, taus) =
  match Selftimed.analyze ~max_states:20_000 g taus with
  | r -> Complete (result_key r)
  | exception Selftimed.Deadlocked -> Dead
  | exception Selftimed.State_space_exceeded _ -> Exceeded

(* (a) An infinite budget is a no-op: same result, same negative
   outcomes, on a large sample of random consistent graphs. *)
let prop_infinite_budget_is_identity =
  qcheck ~count:220 "infinite budget == analyze (220 random graphs)" gen_seed
    (fun seed ->
      let case = random_case seed (1 + (seed mod 3)) in
      run_budgeted ~budget:Budget.infinite case = run_unbudgeted case)

(* (b) Any finite state/arena budget yields either the unbudgeted outcome
   or a partial whose upper bound dominates the true throughput of the
   independent reference engine. *)
let prop_finite_budget_sound =
  qcheck ~count:120 "finite budget: unbudgeted result or sound partial"
    QCheck2.Gen.(pair gen_seed (int_range 1 64))
    (fun (seed, cap) ->
      let ((g, taus) as case) = random_case seed (1 + (seed mod 3)) in
      let budget =
        if seed mod 3 = 0 then Budget.make ~max_arena_bytes:(cap * 8) ()
        else Budget.make ~max_states:cap ()
      in
      match
        Selftimed.analyze_budgeted ~max_states:20_000 ~budget g taus
      with
      | Ok _ as ok -> (
          match run_unbudgeted case with
          | Complete k -> Ok k = Result.map result_key ok
          | _ -> false)
      | exception Selftimed.Deadlocked -> run_unbudgeted case = Dead
      | exception Selftimed.State_space_exceeded _ ->
          run_unbudgeted case = Exceeded
      | Error p -> (
          p.Selftimed.explored > 0
          &&
          match
            Check.Selftimed_reference.analyze ~max_states:20_000 g taus
          with
          | exception Selftimed.Deadlocked ->
              (* A deadlocking graph must not have deadlock ruled out;
                 any upper bound dominates its zero throughput. *)
              not p.Selftimed.dead_ruled_out
          | exception Selftimed.State_space_exceeded _ -> true
          | r ->
              (not p.Selftimed.provably_dead)
              && Array.for_all2
                   (fun ub thr ->
                     Rat.is_infinite ub || Rat.compare ub thr >= 0)
                   p.Selftimed.upper_bound r.Selftimed.throughput))

(* A partial outcome must never poison the memo: after a budget-cut run,
   an unbudgeted replay of the same key still completes correctly. *)
let test_partial_not_cached () =
  let was_enabled = Analysis.Memo.enabled () in
  Fun.protect
    ~finally:(fun () -> Analysis.Memo.set_enabled was_enabled)
    (fun () ->
      Analysis.Memo.set_enabled true;
      (* A seed whose graph completes (no deadlock, modest state space)
         yet blows a 2-state budget. *)
      let case = random_case 3 1 in
      let full = run_unbudgeted case in
      (match full with
      | Complete _ -> ()
      | _ -> Alcotest.fail "seed 3 was expected to complete unbudgeted");
      Analysis.Memo.clear_all ();
      (match run_budgeted ~budget:(Budget.make ~max_states:2 ()) case with
      | Partial Budget.States -> ()
      | _ -> Alcotest.fail "2-state budget was expected to cut seed 3");
      Alcotest.(check bool)
        "unbudgeted replay after a partial still completes" true
        (run_budgeted ~budget:Budget.infinite case = full);
      (* Now the memo holds the complete result: even a tiny budget is
         served the cached answer for free. *)
      Alcotest.(check bool)
        "warm cache answers under any budget" true
        (run_budgeted ~budget:(Budget.make ~max_states:2 ()) case = full))

(* ------------------- (c) pool cancellation accounting ------------------ *)

let with_jobs n f =
  Par.set_jobs n;
  Fun.protect ~finally:(fun () -> Par.set_jobs 1) f

let check_accounting ~jobs ~n ~trigger_at () =
  with_jobs jobs (fun () ->
      let executed = Atomic.make 0 in
      let skipped0 = Par.tasks_skipped () in
      let results =
        Par.cancel_scope (fun token ->
            Par.map_cancellable ~cancel:token
              (fun i ->
                let k = Atomic.fetch_and_add executed 1 in
                if k = trigger_at then Budget.Cancel.trigger token;
                2 * i)
              (List.init n Fun.id))
      in
      let ran = Atomic.get executed in
      let some = List.filter Option.is_some results in
      Alcotest.(check int) "no task lost: one slot per input" n
        (List.length results);
      Alcotest.(check int) "no task duplicated: Some count = executions" ran
        (List.length some);
      Alcotest.(check int)
        "skipped counter accounts for the rest" (n - ran)
        (Par.tasks_skipped () - skipped0);
      Alcotest.(check bool) "cancellation actually cut the batch" true
        (ran < n);
      (* Results stay in input order with correct values. *)
      List.iteri
        (fun i r ->
          match r with
          | Some v -> Alcotest.(check int) "value in order" (2 * i) v
          | None -> ())
        results)

let test_cancel_accounting_parallel () =
  check_accounting ~jobs:4 ~n:200 ~trigger_at:10 ()

let test_cancel_accounting_sequential () =
  check_accounting ~jobs:1 ~n:50 ~trigger_at:5 ()

let test_cancel_scope_on_exception () =
  let leaked = ref None in
  (try
     Par.cancel_scope (fun token ->
         leaked := Some token;
         raise Exit)
   with Exit -> ());
  match !leaked with
  | Some token ->
      Alcotest.(check bool)
        "abandoned scope triggers its token" true
        (Budget.Cancel.triggered token)
  | None -> Alcotest.fail "scope body did not run"

(* ------------------- flow-level budget degradation --------------------- *)

let random_app seed set =
  let rng = Gen.Rng.create ~seed in
  Gen.Sdfgen.generate rng
    (Gen.Benchsets.set_profile set)
    ~proc_types:Gen.Benchsets.proc_types
    ~name:(Printf.sprintf "f%d" seed)

let test_flow_budget_degrades () =
  let app = random_app 0 1 in
  let arch = Gen.Benchsets.architecture 0 in
  let unbudgeted = Core.Flow.allocate_with_retry app arch in
  Alcotest.(check bool)
    "app allocates without a budget" true
    (unbudgeted.Core.Flow.allocation <> None);
  (* The unbudgeted run warmed the memo, which would serve complete
     results to any budget for free; clear it so the budget bites. *)
  Analysis.Memo.clear_all ();
  let r =
    Core.Flow.allocate_with_retry ~budget:(Budget.make ~max_states:2 ()) app
      arch
  in
  Alcotest.(check bool)
    "2-state budget starves every rung" true
    (r.Core.Flow.allocation = None);
  Alcotest.(check bool)
    "the cut surfaces as Budget_exhausted, not a phase failure" true
    (List.exists
       (fun (at : Core.Flow.attempt) ->
         match at.Core.Flow.outcome with
         | Error (Core.Strategy.Budget_exhausted Budget.States) -> true
         | _ -> false)
       r.Core.Flow.attempts);
  (* An already-exhausted budget fails fast on every rung. *)
  let r' =
    Core.Flow.allocate_with_retry ~budget:(Budget.make ~wall_s:(-1.) ()) app
      arch
  in
  Alcotest.(check bool)
    "expired deadline yields no allocation" true
    (r'.Core.Flow.allocation = None);
  Alcotest.(check bool)
    "every rung reports the deadline" true
    (List.for_all
       (fun (at : Core.Flow.attempt) ->
         match at.Core.Flow.outcome with
         | Error (Core.Strategy.Budget_exhausted Budget.Deadline) -> true
         | _ -> false)
       r'.Core.Flow.attempts)

let suite =
  [
    Alcotest.test_case "make () is infinite" `Quick test_make_infinite;
    Alcotest.test_case "state cap" `Quick test_state_cap;
    Alcotest.test_case "arena cap" `Quick test_arena_cap;
    Alcotest.test_case "deadline and cancel" `Quick test_deadline_and_cancel;
    Alcotest.test_case "reason labels" `Quick test_reason_labels;
    prop_infinite_budget_is_identity;
    prop_finite_budget_sound;
    Alcotest.test_case "partials never poison the memo" `Quick
      test_partial_not_cached;
    Alcotest.test_case "cancel accounting (parallel)" `Quick
      test_cancel_accounting_parallel;
    Alcotest.test_case "cancel accounting (sequential)" `Quick
      test_cancel_accounting_sequential;
    Alcotest.test_case "cancel_scope triggers on exception" `Quick
      test_cancel_scope_on_exception;
    Alcotest.test_case "flow degrades budget-exhausted rungs" `Quick
      test_flow_budget_degrades;
  ]
