(* The SDF3-like benchmark generator. *)

module Sdfg = Sdf.Sdfg
module Rat = Sdf.Rat
module Appgraph = Appmodel.Appgraph
open Helpers

let test_rng_determinism () =
  let draw seed =
    let g = Gen.Rng.create ~seed in
    List.init 20 (fun _ -> Gen.Rng.int g 1000)
  in
  Alcotest.(check (list int)) "same seed, same stream" (draw 42) (draw 42);
  Alcotest.(check bool) "different seeds differ" true (draw 42 <> draw 43)

let test_rng_bounds () =
  let g = Gen.Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Gen.Rng.int g 10 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 10);
    let r = Gen.Rng.range g 5 8 in
    Alcotest.(check bool) "range inclusive" true (r >= 5 && r <= 8)
  done

let test_rng_split_independence () =
  let g = Gen.Rng.create ~seed:1 in
  let a = Gen.Rng.split g in
  let b = Gen.Rng.split g in
  let stream x = List.init 10 (fun _ -> Gen.Rng.int x 1_000_000) in
  Alcotest.(check bool) "split streams differ" true (stream a <> stream b)

let test_shuffle_is_permutation () =
  let g = Gen.Rng.create ~seed:3 in
  let a = Array.init 20 Fun.id in
  let b = Array.copy a in
  Gen.Rng.shuffle g b;
  Alcotest.(check (list int)) "same multiset" (Array.to_list a)
    (List.sort compare (Array.to_list b))

let test_sequence_determinism () =
  let names seq =
    List.map
      (fun (a : Appgraph.t) -> Sdfg.num_actors a.Appgraph.graph)
      (Gen.Benchsets.sequence ~set:1 ~seq ~count:5)
  in
  Alcotest.(check (list int)) "reproducible" (names 0) (names 0);
  Alcotest.(check bool) "sequences differ" true (names 0 <> names 1)

let test_generated_well_formed () =
  List.iter
    (fun set ->
      List.iter
        (fun (app : Appgraph.t) ->
          let g = app.Appgraph.graph in
          Alcotest.(check bool) "connected" true (Sdfg.is_weakly_connected g);
          Alcotest.(check bool) "consistent" true (Sdf.Repetition.is_consistent g);
          Alcotest.(check bool) "live" true (Sdf.Deadlock.is_deadlock_free g);
          Alcotest.(check bool) "positive lambda" true
            (Rat.compare app.Appgraph.lambda Rat.zero > 0);
          (* Every actor has an input (self-timed analysis needs it). *)
          for a = 0 to Sdfg.num_actors g - 1 do
            Alcotest.(check bool) "actor has input" true (Sdfg.in_channels g a <> [||])
          done)
        (Gen.Benchsets.sequence ~set ~seq:0 ~count:8))
    [ 1; 2; 3; 4 ]

let test_profiles_stress_the_right_resource () =
  let avg f apps =
    List.fold_left (fun acc a -> acc +. f a) 0. apps
    /. float_of_int (List.length apps)
  in
  let mem_per_actor (app : Appgraph.t) =
    let n = Sdfg.num_actors app.Appgraph.graph in
    let total =
      List.init n (fun a -> Appgraph.max_exec_time app a) |> List.fold_left ( + ) 0
    in
    ignore total;
    let mem =
      List.init n (fun a ->
          match Appgraph.memory app a (fst (List.hd app.Appgraph.reqs.(a))) with
          | Some m -> m
          | None -> 0)
      |> List.fold_left ( + ) 0
    in
    float_of_int mem /. float_of_int n
  in
  let tau_per_actor (app : Appgraph.t) =
    let n = Sdfg.num_actors app.Appgraph.graph in
    let total =
      List.init n (fun a -> Appgraph.max_exec_time app a) |> List.fold_left ( + ) 0
    in
    float_of_int total /. float_of_int n
  in
  let set k = Gen.Benchsets.sequence ~set:k ~seq:0 ~count:10 in
  Alcotest.(check bool) "set1 has the largest execution times" true
    (avg tau_per_actor (set 1) > avg tau_per_actor (set 2));
  Alcotest.(check bool) "set2 has the largest actor state" true
    (avg mem_per_actor (set 2) > avg mem_per_actor (set 1)
    && avg mem_per_actor (set 2) > avg mem_per_actor (set 3))

let test_buffer_liveness_bound () =
  (* Generated Theta buffers hold one iteration: alpha_tile covers
     prod * gamma(src) plus resident tokens on every channel. *)
  List.iter
    (fun (app : Appgraph.t) ->
      let g = app.Appgraph.graph in
      let gamma = Appgraph.gamma app in
      Array.iteri
        (fun ci (cr : Appgraph.channel_req) ->
          let c = Sdfg.channel g ci in
          (* gamma is the minimal vector; the generator's choice may be a
             multiple, so check against the minimal one. *)
          Alcotest.(check bool) "alpha_tile covers an iteration" true
            (cr.Appgraph.alpha_tile >= (c.Sdfg.prod * gamma.(c.Sdfg.src)) + c.Sdfg.tokens))
        app.Appgraph.creqs)
    (Gen.Benchsets.sequence ~set:3 ~seq:2 ~count:10)

let test_architecture_variants () =
  let a0 = Gen.Benchsets.architecture 0 in
  let a2 = Gen.Benchsets.architecture 2 in
  Alcotest.(check int) "3x3" 9 (Platform.Archgraph.num_tiles a0);
  Alcotest.(check bool) "variant 2 has less memory" true
    ((Platform.Archgraph.tile a2 0).Platform.Tile.mem
    < (Platform.Archgraph.tile a0 0).Platform.Tile.mem);
  Alcotest.(check bool) "variant 2 has fewer connections" true
    ((Platform.Archgraph.tile a2 0).Platform.Tile.max_conns
    < (Platform.Archgraph.tile a0 0).Platform.Tile.max_conns);
  (* All three processor types are present. *)
  let types =
    Array.to_list (Platform.Archgraph.tiles a0)
    |> List.map (fun t -> t.Platform.Tile.proc_type)
    |> List.sort_uniq compare
  in
  Alcotest.(check int) "3 types" 3 (List.length types)

let suite =
  [
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng split" `Quick test_rng_split_independence;
    Alcotest.test_case "shuffle permutes" `Quick test_shuffle_is_permutation;
    Alcotest.test_case "sequence determinism" `Quick test_sequence_determinism;
    Alcotest.test_case "generated graphs well formed" `Quick test_generated_well_formed;
    Alcotest.test_case "profiles stress the right resource" `Quick
      test_profiles_stress_the_right_resource;
    Alcotest.test_case "buffer liveness bound" `Quick test_buffer_liveness_bound;
    Alcotest.test_case "architecture variants" `Quick test_architecture_variants;
  ]
