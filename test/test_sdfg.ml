(* SDFG construction and structural queries. *)

module Sdfg = Sdf.Sdfg
open Helpers

let test_builder () =
  let g = example_graph () in
  Alcotest.(check int) "actors" 3 (Sdfg.num_actors g);
  Alcotest.(check int) "channels" 3 (Sdfg.num_channels g);
  Alcotest.(check string) "actor name" "a2" (Sdfg.actor_name g 1);
  Alcotest.(check int) "actor index" 2 (Sdfg.actor_index g "a3");
  let c = Sdfg.channel g 1 in
  Alcotest.(check int) "src" 1 c.Sdfg.src;
  Alcotest.(check int) "dst" 2 c.Sdfg.dst;
  Alcotest.(check int) "prod" 1 c.Sdfg.prod;
  Alcotest.(check int) "cons" 2 c.Sdfg.cons;
  Alcotest.(check int) "tokens" 0 c.Sdfg.tokens

let test_adjacency () =
  let g = example_graph () in
  Alcotest.(check (array int)) "out a1" [| 0; 2 |] (Sdfg.out_channels g 0);
  Alcotest.(check (array int)) "in a1" [| 2 |] (Sdfg.in_channels g 0);
  Alcotest.(check (array int)) "out a2" [| 1 |] (Sdfg.out_channels g 1);
  Alcotest.(check (array int)) "in a3" [| 1 |] (Sdfg.in_channels g 2);
  Alcotest.(check (array int)) "out a3" [||] (Sdfg.out_channels g 2)

let test_self_loops () =
  let g = example_graph () in
  Alcotest.(check bool) "d3 is self loop" true (Sdfg.is_self_loop g 2);
  Alcotest.(check bool) "d1 is not" false (Sdfg.is_self_loop g 0);
  Alcotest.(check bool) "a1 has unit self loop" true (Sdfg.has_unit_self_loop g 0);
  Alcotest.(check bool) "a2 has none" false (Sdfg.has_unit_self_loop g 1);
  (* A self-loop without tokens does not bound auto-concurrency. *)
  let g2 =
    Sdfg.of_lists ~actors:[ "x" ] ~channels:[ ("x", "x", 1, 1, 0) ]
  in
  Alcotest.(check bool) "tokenless self loop" false (Sdfg.has_unit_self_loop g2 0);
  (* Nor does a multirate one. *)
  let g3 =
    Sdfg.of_lists ~actors:[ "x" ] ~channels:[ ("x", "x", 2, 2, 2) ]
  in
  Alcotest.(check bool) "multirate self loop" false (Sdfg.has_unit_self_loop g3 0)

let test_validation () =
  let b = Sdfg.Builder.create () in
  let _ = Sdfg.Builder.add_actor b "a" in
  Alcotest.check_raises "duplicate actor"
    (Invalid_argument "Sdfg.Builder.add_actor: duplicate name \"a\"")
    (fun () -> ignore (Sdfg.Builder.add_actor b "a"));
  Alcotest.check_raises "zero rate"
    (Invalid_argument "Sdfg.Builder.add_channel: rates must be positive")
    (fun () ->
      ignore (Sdfg.Builder.add_channel b ~src:0 ~dst:0 ~prod:0 ~cons:1 ()));
  Alcotest.check_raises "negative tokens"
    (Invalid_argument "Sdfg.Builder.add_channel: negative initial tokens")
    (fun () ->
      ignore
        (Sdfg.Builder.add_channel b ~tokens:(-1) ~src:0 ~dst:0 ~prod:1 ~cons:1 ()));
  Alcotest.check_raises "bad actor index"
    (Invalid_argument "Sdfg.Builder.add_channel: actor index out of range")
    (fun () ->
      ignore (Sdfg.Builder.add_channel b ~src:0 ~dst:7 ~prod:1 ~cons:1 ()))

let test_connectivity () =
  Alcotest.(check bool) "example connected" true
    (Sdfg.is_weakly_connected (example_graph ()));
  let disconnected =
    Sdfg.of_lists ~actors:[ "a"; "b"; "c" ]
      ~channels:[ ("a", "b", 1, 1, 0) ]
  in
  Alcotest.(check bool) "c is isolated" false
    (Sdfg.is_weakly_connected disconnected);
  let empty = Sdfg.of_lists ~actors:[] ~channels:[] in
  Alcotest.(check bool) "empty is connected" true
    (Sdfg.is_weakly_connected empty);
  let single = Sdfg.of_lists ~actors:[ "a" ] ~channels:[] in
  Alcotest.(check bool) "singleton is connected" true
    (Sdfg.is_weakly_connected single);
  (* Weak connectivity must follow channels backwards too. *)
  let v =
    Sdfg.of_lists ~actors:[ "a"; "b"; "c" ]
      ~channels:[ ("a", "b", 1, 1, 0); ("c", "b", 1, 1, 0) ]
  in
  Alcotest.(check bool) "inverted V shape" true (Sdfg.is_weakly_connected v)

let test_map_tokens () =
  let g = example_graph () in
  let g2 = Sdfg.map_tokens g (fun c -> c.Sdfg.tokens + 5) in
  Alcotest.(check int) "updated" 5 (Sdfg.channel g2 0).Sdfg.tokens;
  Alcotest.(check int) "self loop updated" 6 (Sdfg.channel g2 2).Sdfg.tokens;
  Alcotest.(check int) "original untouched" 0 (Sdfg.channel g 0).Sdfg.tokens

let test_of_lists_unknown_actor () =
  Alcotest.check_raises "unknown actor"
    (Invalid_argument "Sdfg.of_lists: unknown actor \"nope\"")
    (fun () ->
      ignore
        (Sdfg.of_lists ~actors:[ "a" ] ~channels:[ ("a", "nope", 1, 1, 0) ]))

let suite =
  [
    Alcotest.test_case "builder" `Quick test_builder;
    Alcotest.test_case "adjacency" `Quick test_adjacency;
    Alcotest.test_case "self loops" `Quick test_self_loops;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "connectivity" `Quick test_connectivity;
    Alcotest.test_case "map_tokens" `Quick test_map_tokens;
    Alcotest.test_case "of_lists unknown actor" `Quick test_of_lists_unknown_actor;
  ]
