(* Multi-application policies and orderings (the Sec. 10.1 improvements). *)

module Multi_app = Core.Multi_app
module Appgraph = Appmodel.Appgraph
module Models = Appmodel.Models

let weights = Core.Cost.weights 0. 1. 2.

let apps () = Gen.Benchsets.sequence ~set:1 ~seq:0 ~count:40
let arch () = Gen.Benchsets.architecture 0

let test_skip_never_worse () =
  let stop =
    Multi_app.allocate_until_failure ~weights ~max_states:200_000
      ~policy:Multi_app.Stop_at_first_failure (apps ()) (arch ())
  in
  let skip =
    Multi_app.allocate_until_failure ~weights ~max_states:200_000
      ~policy:Multi_app.Skip_failed (apps ()) (arch ())
  in
  let n_stop = List.length stop.Multi_app.allocations in
  let n_skip = List.length skip.Multi_app.allocations in
  Alcotest.(check bool)
    (Printf.sprintf "skip (%d) >= stop (%d)" n_skip n_stop)
    true (n_skip >= n_stop);
  (* The allocated prefix before the first failure is identical. *)
  let prefix_names r =
    List.map
      (fun (a : Core.Strategy.allocation) -> a.Core.Strategy.app.Appgraph.app_name)
      r.Multi_app.allocations
  in
  let stop_names = prefix_names stop in
  let skip_names = prefix_names skip in
  Alcotest.(check (list string)) "same prefix" stop_names
    (List.filteri (fun i _ -> i < List.length stop_names) skip_names)

let test_skip_records_rejections () =
  let skip =
    Multi_app.allocate_until_failure ~weights ~max_states:200_000
      ~policy:Multi_app.Skip_failed (apps ()) (arch ())
  in
  Alcotest.(check int) "allocated + rejected = offered" 40
    (List.length skip.Multi_app.allocations + List.length skip.Multi_app.rejected);
  Alcotest.(check bool) "failure reason kept" true
    (skip.Multi_app.rejected = [] || skip.Multi_app.first_failure <> None)

let test_stop_has_no_rejections () =
  let stop =
    Multi_app.allocate_until_failure ~weights ~max_states:200_000 (apps ())
      (arch ())
  in
  Alcotest.(check int) "no rejected list under stop" 0
    (List.length stop.Multi_app.rejected)

let test_ordering_is_stable_permutation () =
  let apps = apps () in
  let skip order =
    Multi_app.allocate_until_failure ~weights ~max_states:200_000
      ~policy:Multi_app.Skip_failed ~order apps (arch ())
  in
  let light = skip Multi_app.By_total_work_ascending in
  (* Light-first handles applications in non-decreasing work order. *)
  let works =
    List.map
      (fun (a : Core.Strategy.allocation) -> Appgraph.total_work a.Core.Strategy.app)
      light.Multi_app.allocations
  in
  let rec non_decreasing = function
    | a :: (b :: _ as rest) -> a <= b && non_decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "non-decreasing work" true (non_decreasing works)

let test_multimedia_order_irrelevant_when_all_fit () =
  let apps =
    [
      Models.mp3 (); Models.h263 ~name:"v0" (); Models.h263 ~name:"v1" ();
      Models.h263 ~name:"v2" ();
    ]
  in
  let r =
    Multi_app.allocate_until_failure ~weights:(Core.Cost.weights 2. 0. 1.)
      ~max_states:2_000_000 ~order:Multi_app.By_total_work_descending apps
      (Models.multimedia_platform ())
  in
  Alcotest.(check int) "all four, heavy first" 4 (List.length r.Multi_app.allocations)

(* Committing an allocation rebuilds only the tiles it uses: every other
   tile record is shared with the architecture it was allocated on. *)
let test_commit_shares_untouched_tiles () =
  let arch = arch () in
  let r =
    Multi_app.allocate_until_failure ~weights ~max_states:200_000
      (Gen.Benchsets.sequence ~set:1 ~seq:0 ~count:1)
      arch
  in
  Alcotest.(check int) "one allocation" 1 (List.length r.Multi_app.allocations);
  let before = Platform.Archgraph.tiles arch
  and after = Platform.Archgraph.tiles r.Multi_app.remaining in
  let shared = ref 0 in
  Array.iteri
    (fun t tile ->
      let same = tile = after.(t) in
      if same then incr shared;
      Alcotest.(check bool)
        (Printf.sprintf "tile %d shared iff unchanged" t)
        same
        (tile == after.(t)))
    before;
  Alcotest.(check bool) "some tile untouched" true (!shared > 0);
  Alcotest.(check bool) "some tile used" true (!shared < Array.length before)

let suite =
  [
    Alcotest.test_case "skip never worse" `Slow test_skip_never_worse;
    Alcotest.test_case "skip records rejections" `Slow test_skip_records_rejections;
    Alcotest.test_case "stop has no rejections" `Quick test_stop_has_no_rejections;
    Alcotest.test_case "commit shares untouched tiles" `Quick
      test_commit_shares_untouched_tiles;
    Alcotest.test_case "ordering stable" `Slow test_ordering_is_stable_permutation;
    Alcotest.test_case "multimedia reordered" `Slow
      test_multimedia_order_irrelevant_when_all_fit;
  ]
