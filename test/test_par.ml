(* The domain work-pool: ordering, exception propagation, nesting, and the
   property the whole parallel layer rests on — [--jobs N] produces results
   identical to a sequential run, for the pool primitives themselves and
   for the allocation entry points built on them. *)

module Rat = Sdf.Rat
module Appgraph = Appmodel.Appgraph
open Helpers

(* Every test restores the sequential default so suite order never
   matters. *)
let with_jobs n f =
  Par.set_jobs n;
  Fun.protect ~finally:(fun () -> Par.set_jobs 1) f

let test_sequential_map () =
  Alcotest.(check (list int))
    "jobs=1 map is List.map" [ 2; 4; 6 ]
    (Par.map (fun x -> 2 * x) [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "empty list" [] (Par.map (fun x -> x) []);
  Alcotest.(check int) "jobs () is 1" 1 (Par.jobs ())

let test_parallel_map_order () =
  with_jobs 4 (fun () ->
      Alcotest.(check int) "jobs () is 4" 4 (Par.jobs ());
      let xs = List.init 100 Fun.id in
      (* Uneven work so completion order differs from input order. *)
      let f x =
        let acc = ref 0 in
        for i = 0 to (x mod 7) * 1000 do
          acc := !acc + i
        done;
        ignore !acc;
        x * x
      in
      Alcotest.(check (list int))
        "results in input order" (List.map f xs) (Par.map f xs))

let test_mapi () =
  with_jobs 3 (fun () ->
      Alcotest.(check (list int))
        "mapi passes indices" [ 10; 21; 32; 43 ]
        (Par.mapi (fun i x -> (10 * x) + i) [ 1; 2; 3; 4 ]))

let test_map_reduce () =
  with_jobs 4 (fun () ->
      (* A non-associative, non-commutative combine: the fold must happen
         left-to-right in input order to produce this exact string. *)
      let s =
        Par.map_reduce
          ~map:string_of_int
          ~combine:(fun acc x -> acc ^ "," ^ x)
          ~init:"" (List.init 20 Fun.id)
      in
      Alcotest.(check string)
        "deterministic fold order"
        (List.fold_left
           (fun acc x -> acc ^ "," ^ string_of_int x)
           ""
           (List.init 20 Fun.id))
        s)

exception Boom of int

let test_exception_propagation () =
  with_jobs 4 (fun () ->
      let executed = Atomic.make 0 in
      let f x =
        Atomic.incr executed;
        if x mod 3 = 1 then raise (Boom x) else x
      in
      (match Par.map f (List.init 12 Fun.id) with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom x ->
          Alcotest.(check int) "smallest failing index wins" 1 x);
      Alcotest.(check int)
        "every task ran despite the failures" 12 (Atomic.get executed))

let test_nested_map () =
  with_jobs 3 (fun () ->
      Alcotest.(check bool) "not inside a task at top level" false
        (Par.inside_task ());
      (* Alcotest's formatter is not domain-safe: tasks only record what
         they saw, and every assertion runs here on the main domain. *)
      let rows =
        Par.map
          (fun row ->
            let inside = Par.inside_task () in
            (inside, Par.map (fun col -> (10 * row) + col) [ 0; 1; 2 ]))
          [ 1; 2; 3; 4; 5; 6 ]
      in
      Alcotest.(check bool) "inside a task" true (List.for_all fst rows);
      let grid = List.map snd rows in
      Alcotest.(check (list (list int)))
        "nested batches complete correctly"
        [
          [ 10; 11; 12 ]; [ 20; 21; 22 ]; [ 30; 31; 32 ]; [ 40; 41; 42 ];
          [ 50; 51; 52 ]; [ 60; 61; 62 ];
        ]
        grid;
      Alcotest.(check bool) "flag restored after the batch" false
        (Par.inside_task ()))

let test_resize () =
  with_jobs 2 (fun () ->
      Alcotest.(check int) "2 jobs" 2 (Par.jobs ());
      Par.set_jobs 5;
      Alcotest.(check int) "resized to 5" 5 (Par.jobs ());
      Alcotest.(check (list int))
        "map still correct after resize" [ 1; 4; 9 ]
        (Par.map (fun x -> x * x) [ 1; 2; 3 ]);
      Par.set_jobs 1;
      Alcotest.(check int) "back to sequential" 1 (Par.jobs ()))

let prop_map_equals_list_map =
  qcheck ~count:50 "parallel map == List.map on random lists"
    QCheck2.Gen.(list (int_range (-1000) 1000))
    (fun xs ->
      with_jobs 3 (fun () ->
          Par.map (fun x -> (x * 7) - 13) xs = List.map (fun x -> (x * 7) - 13) xs))

(* ----- results of the allocation entry points are job-count-invariant --- *)

let random_app seed set =
  let rng = Gen.Rng.create ~seed in
  Gen.Sdfgen.generate rng
    (Gen.Benchsets.set_profile set)
    ~proc_types:Gen.Benchsets.proc_types
    ~name:(Printf.sprintf "j%d" seed)

(* Everything observable about an allocation except the wall-clock stats. *)
let alloc_key (a : Core.Strategy.allocation) =
  ( Array.to_list a.Core.Strategy.binding,
    Array.to_list a.Core.Strategy.slices,
    Rat.to_string a.Core.Strategy.throughput,
    a.Core.Strategy.stats.Core.Strategy.throughput_checks,
    Array.to_list
      (Array.map
         (Option.map (fun (s : Core.Schedule.t) ->
              ( Array.to_list s.Core.Schedule.prefix,
                Array.to_list s.Core.Schedule.period )))
         a.Core.Strategy.schedules) )

let flow_key (r : Core.Flow.result) =
  ( Option.map alloc_key r.Core.Flow.allocation,
    List.map
      (fun (at : Core.Flow.attempt) ->
        match at.Core.Flow.outcome with
        | Ok a -> "ok:" ^ Rat.to_string a.Core.Strategy.throughput
        | Error (Core.Strategy.Bind_failed f) ->
            Printf.sprintf "bind:%d" f.Core.Binding_step.failed_actor
        | Error Core.Strategy.Schedule_failed -> "schedule"
        | Error (Core.Strategy.Slice_failed f) ->
            Printf.sprintf "slice:%d" f.Core.Slice_alloc.checks
        | Error (Core.Strategy.Budget_exhausted r) ->
            "budget:" ^ Budget.reason_label r)
      r.Core.Flow.attempts )

let prop_flow_jobs_invariant =
  qcheck ~count:6 "Flow.allocate_with_retry: jobs=2 == jobs=1"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let app = random_app seed (1 + (seed mod 3)) in
      let arch = Gen.Benchsets.architecture (seed mod 3) in
      let run () =
        Analysis.Memo.clear_all ();
        flow_key (Core.Flow.allocate_with_retry ~max_states:50_000 app arch)
      in
      let seq = run () in
      let par = with_jobs 2 run in
      seq = par)

let report_key (r : Core.Multi_app.report) =
  ( List.map alloc_key r.Core.Multi_app.allocations,
    List.map
      (fun (a : Appgraph.t) -> a.Appgraph.app_name)
      r.Core.Multi_app.rejected,
    r.Core.Multi_app.wheel_used,
    r.Core.Multi_app.memory_used,
    r.Core.Multi_app.connections_used )

let prop_multi_app_jobs_invariant =
  qcheck ~count:4 "Multi_app.allocate_until_failure: jobs=2 == jobs=1"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let apps = List.init 4 (fun i -> random_app (seed + i) (1 + (i mod 3))) in
      let arch = Gen.Benchsets.architecture (seed mod 3) in
      let run () =
        Analysis.Memo.clear_all ();
        report_key
          (Core.Multi_app.allocate_until_failure
             ~weights:(Core.Cost.weights 0. 1. 2.)
             ~policy:Core.Multi_app.Skip_failed ~max_states:50_000 apps arch)
      in
      let seq = run () in
      let par = with_jobs 2 run in
      seq = par)

let suite =
  [
    Alcotest.test_case "sequential map" `Quick test_sequential_map;
    Alcotest.test_case "parallel map order" `Quick test_parallel_map_order;
    Alcotest.test_case "mapi" `Quick test_mapi;
    Alcotest.test_case "map_reduce fold order" `Quick test_map_reduce;
    Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
    Alcotest.test_case "nested map" `Quick test_nested_map;
    Alcotest.test_case "pool resize" `Quick test_resize;
    prop_map_equals_list_map;
    prop_flow_jobs_invariant;
    prop_multi_app_jobs_invariant;
  ]
