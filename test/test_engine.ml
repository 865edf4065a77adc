(* The packed state-space engine: unit tests for the Pack / Stateset /
   Rings primitives, plus the behavioral-identity properties the port
   rests on — [Selftimed.analyze] against [Selftimed.analyze_reference]
   and [Constrained.analyze] against [Constrained.analyze_reference] on
   generated workloads and every corpus graph. *)

module Sdfg = Sdf.Sdfg
module Pack = Engine.Pack
module Stateset = Engine.Stateset
module Rings = Engine.Rings
module Case = Check.Case
open Helpers

(* --- Pack ------------------------------------------------------------ *)

let pack_of_ints f xs =
  let p = Pack.create ~initial:8 () in
  List.iter (f p) xs;
  (Pack.contents p, Pack.hash p)

let test_pack_uint_injective () =
  (* Distinct field sequences of equal arity encode to distinct bytes. *)
  let seqs =
    [
      [ 0; 0 ]; [ 0; 1 ]; [ 1; 0 ]; [ 127; 128 ]; [ 128; 127 ];
      [ 16384; 3 ]; [ 3; 16384 ]; [ 300; 300 ]; [ 0; 1_000_000 ];
    ]
  in
  let encs = List.map (pack_of_ints Pack.add_uint) seqs in
  let rec pairs = function
    | [] -> ()
    | (s, _) :: rest ->
        List.iter
          (fun (s', _) ->
            if s = s' then Alcotest.fail "distinct uint sequences collide")
          rest;
        pairs rest
  in
  pairs encs

let test_pack_hash_matches_contents () =
  (* Equal byte contents always carry equal rolling hashes, including
     across a reset that reuses the grown buffer. *)
  let p = Pack.create ~initial:2 () in
  List.iter (Pack.add_uint p) [ 5; 500; 50_000; 5_000_000 ];
  let c1 = Pack.contents p and h1 = Pack.hash p in
  Pack.reset p;
  List.iter (Pack.add_uint p) [ 5; 500; 50_000; 5_000_000 ];
  Alcotest.(check string) "contents stable across reset" c1 (Pack.contents p);
  Alcotest.(check int) "hash stable across reset" h1 (Pack.hash p);
  Alcotest.(check bool) "hash non-negative" true (h1 >= 0)

let test_pack_zigzag () =
  (* add_int must separate negatives from positives and keep small
     magnitudes short. *)
  let enc v = fst (pack_of_ints Pack.add_int [ v ]) in
  Alcotest.(check bool) "-1 <> 1" true (enc (-1) <> enc 1);
  Alcotest.(check bool) "-1 <> 0" true (enc (-1) <> enc 0);
  Alcotest.(check bool) "min_int encodes" true
    (String.length (enc min_int) <= 10);
  Alcotest.(check int) "small magnitude is one byte" 1
    (String.length (enc (-3)))

let test_pack_fixed_width () =
  Alcotest.(check int) "width_for 0" 1 (Pack.width_for 0);
  Alcotest.(check int) "width_for 255" 1 (Pack.width_for 255);
  Alcotest.(check int) "width_for 256" 2 (Pack.width_for 256);
  Alcotest.(check int) "width_for 65535" 2 (Pack.width_for 65535);
  Alcotest.(check int) "width_for 65536" 3 (Pack.width_for 65536);
  let p = Pack.create () in
  Pack.add_fixed p ~width:3 0x01_02_03;
  Alcotest.(check int) "3 bytes written" 3 (Pack.len p);
  Alcotest.(check string) "little-endian layout" "\x03\x02\x01"
    (Pack.contents p)

(* --- Stateset -------------------------------------------------------- *)

let test_stateset_find_or_add () =
  let set = Stateset.create ~initial_slots:4 () in
  let p = Pack.create () in
  (* First visit of 1000 distinct states: all misses, payload echoed. *)
  for i = 0 to 999 do
    Pack.reset p;
    Pack.add_uint p i;
    Pack.add_uint p (i * 7);
    let seen, q0, q1 = Stateset.find_or_add set p ~p0:(i * 2) ~p1:(i * 3) in
    if seen then Alcotest.failf "state %d reported seen on first visit" i;
    Alcotest.(check int) "p0 echoed" (i * 2) q0;
    Alcotest.(check int) "p1 echoed" (i * 3) q1
  done;
  Alcotest.(check int) "all inserted" 1000 (Stateset.length set);
  (* Revisits return the payload recorded at insertion, not the new one. *)
  for i = 0 to 999 do
    Pack.reset p;
    Pack.add_uint p i;
    Pack.add_uint p (i * 7);
    let seen, q0, q1 = Stateset.find_or_add set p ~p0:(-1) ~p1:(-1) in
    if not seen then Alcotest.failf "state %d lost after resize" i;
    Alcotest.(check int) "original p0" (i * 2) q0;
    Alcotest.(check int) "original p1" (i * 3) q1
  done;
  Alcotest.(check int) "revisits add nothing" 1000 (Stateset.length set);
  let st = Stateset.stats set in
  Alcotest.(check int) "stats count" 1000 st.Stateset.states;
  Alcotest.(check bool) "table kept below 7/10 load" true
    (st.Stateset.states * 10 <= st.Stateset.slots * 7);
  Alcotest.(check bool) "arena holds every packed byte" true
    (st.Stateset.arena_bytes > 0)

let test_stateset_prefix_states_distinct () =
  (* "1 ring entry of value 2" vs "2 entries of 1 token" style prefixes:
     states of different lengths never alias. *)
  let set = Stateset.create ~initial_slots:4 () in
  let p = Pack.create () in
  Pack.add_uint p 1;
  Pack.add_uint p 2;
  let seen, _, _ = Stateset.find_or_add set p ~p0:0 ~p1:0 in
  Alcotest.(check bool) "first" false seen;
  Pack.reset p;
  Pack.add_uint p 1;
  Pack.add_uint p 2;
  Pack.add_uint p 0;
  let seen, _, _ = Stateset.find_or_add set p ~p0:0 ~p1:0 in
  Alcotest.(check bool) "longer state is distinct" false seen

let pack_string p s =
  Pack.reset p;
  String.iter (fun c -> Pack.add_byte p (Char.code c)) s

(* Every answer of the seen-set equals a [Hashtbl] model's: first visits
   echo the payload, revisits return the first visit's. States range from
   empty to longer than one 64 KiB arena chunk; short ones use a 3-letter
   alphabet so distinct states of equal length share prefixes. *)
let gen_stateset_case =
  let open QCheck2.Gen in
  let short = string_size ~gen:(char_range 'a' 'c') (int_range 1 80) in
  let long =
    map
      (fun (n, k, c) -> String.init n (fun i -> if i = k mod n then c else 'x'))
      (triple (int_range 65_530 66_000) nat (char_range 'a' 'c'))
  in
  let state = frequency [ (1, return ""); (12, short); (1, long) ] in
  pair
    (list_size (int_range 1 20) state)
    (list_size (int_range 0 200) (triple nat int int))

let prop_stateset_matches_model =
  qcheck ~count:200 "stateset = Hashtbl model" gen_stateset_case
    (fun (pool, ops) ->
      let pool = Array.of_list pool in
      let set = Stateset.create () and model = Hashtbl.create 16 in
      let p = Pack.create () in
      List.for_all
        (fun (k, p0, p1) ->
          let s = pool.(k mod Array.length pool) in
          pack_string p s;
          let want =
            match Hashtbl.find_opt model s with
            | Some (q0, q1) -> (true, q0, q1)
            | None ->
                Hashtbl.add model s (p0, p1);
                (false, p0, p1)
          in
          Stateset.find_or_add set p ~p0 ~p1 = want)
        ops
      && Stateset.length set = Hashtbl.length model
      && Stateset.arena_bytes set
         = Hashtbl.fold (fun s _ n -> n + String.length s) model 0)

(* Payloads stay with their states across every table and per-state-array
   growth up to past 2^17 states. *)
let test_stateset_growth_payloads () =
  let n = (1 lsl 17) + 5_000 in
  let set = Stateset.create () and p = Pack.create () in
  let state i =
    Pack.reset p;
    Pack.add_uint p i;
    Pack.add_uint p (i * 31 mod 977)
  in
  for i = 0 to n - 1 do
    state i;
    ignore (Stateset.find_or_add set p ~p0:i ~p1:(-i))
  done;
  for i = 0 to n - 1 do
    state i;
    let seen, q0, q1 = Stateset.find_or_add set p ~p0:0 ~p1:0 in
    if not (seen && q0 = i && q1 = -i) then
      Alcotest.failf "state %d: (%b, %d, %d)" i seen q0 q1
  done;
  Alcotest.(check int) "no state added by revisits" n (Stateset.length set)

(* A slot keeps only the low 32 bits of the hash. Two different states
   whose hashes agree on those bits share a home slot and a tag, so only
   the byte comparison can tell them apart. The birthday search runs over
   scrambled varints: on small consecutive integers the low 32 bits of
   FNV-1a rarely collide (none among the first 400k single varints or
   3-byte fixed fields), while these states collide at i = 115,413. *)
let test_stateset_tag_collision () =
  let p = Pack.create () in
  let write i =
    Pack.reset p;
    Pack.add_uint p (i * 0x1E3779B97F4A7C15 land max_int)
  in
  let first = Hashtbl.create 100_000 in
  let rec search i =
    if i > 1 lsl 20 then Alcotest.fail "no 32-bit tag collision found";
    write i;
    let t = Pack.hash p land 0xFFFF_FFFF in
    match Hashtbl.find_opt first t with
    | Some j -> (j, i)
    | None ->
        Hashtbl.add first t i;
        search (i + 1)
  in
  let a, b = search 0 in
  let set = Stateset.create () in
  let probe i ~p0 =
    write i;
    Stateset.find_or_add set p ~p0 ~p1:(-p0)
  in
  Alcotest.(check (triple bool int int)) "first stored" (false, 1, -1)
    (probe a ~p0:1);
  Alcotest.(check (triple bool int int)) "second stored apart" (false, 2, -2)
    (probe b ~p0:2);
  Alcotest.(check (triple bool int int)) "first found" (true, 1, -1)
    (probe a ~p0:9);
  Alcotest.(check (triple bool int int)) "second found" (true, 2, -2)
    (probe b ~p0:9);
  Alcotest.(check int) "two states" 2 (Stateset.length set);
  Alcotest.(check int) "same home slot" 2 (Stateset.stats set).max_probe

(* A tag collision between a state and its own 3-byte extension: only the
   stored length tells them apart. The low 32 bits of FNV-1a evolve as
   [h <- (h lxor byte) * 0x1b3 mod 2^32] (0x1b3 is the 64-bit FNV prime
   mod 2^32), so from a state's tag we solve for a suffix that maps the
   tag back to itself: pick two bytes, the third is then determined and
   fits in a byte about once per 2^24 picks. *)
let test_stateset_prefix_tag_collision () =
  let m32 = 0xFFFF_FFFF and prime = 0x1b3 in
  let step h b = (h lxor b) * prime land m32 in
  (* Inverse of the odd prime mod 2^32 by Newton's iteration. *)
  let inv = ref prime in
  for _ = 1 to 5 do
    inv := !inv * (2 - (prime * !inv)) land m32
  done;
  let p = Pack.create () in
  let write i =
    Pack.reset p;
    Pack.add_uint p (i * 0x1E3779B97F4A7C15 land max_int)
  in
  let rec search i =
    if i > 1 lsl 16 then Alcotest.fail "no self-mapping suffix found";
    write i;
    let h = Pack.hash p land m32 in
    let target = h * !inv land m32 in
    let found = ref None in
    for b1 = 0 to 255 do
      for b2 = 0 to 255 do
        let b3 = step (step h b1) b2 lxor target in
        if b3 < 256 && !found = None then found := Some (b1, b2, b3)
      done
    done;
    match !found with Some s -> (i, s) | None -> search (i + 1)
  in
  let i, (b1, b2, b3) = search 0 in
  let long () =
    write i;
    List.iter (Pack.add_byte p) [ b1; b2; b3 ]
  in
  long ();
  let long_tag = Pack.hash p land m32 in
  write i;
  Alcotest.(check int) "suffix keeps the tag (FNV-1a low bits)" long_tag
    (Pack.hash p land m32);
  let set = Stateset.create () in
  long ();
  Alcotest.(check (triple bool int int)) "extension stored" (false, 1, 1)
    (Stateset.find_or_add set p ~p0:1 ~p1:1);
  write i;
  Alcotest.(check (triple bool int int)) "prefix is a new state" (false, 2, 2)
    (Stateset.find_or_add set p ~p0:2 ~p1:2);
  long ();
  Alcotest.(check (triple bool int int)) "extension found" (true, 1, 1)
    (Stateset.find_or_add set p ~p0:3 ~p1:3)

(* Memory guard. The previous layout kept five int words per slot (arena
   offset, length, hash, two payloads) and one byte arena that doubled
   from 512 bytes, so for the same inserts it allocated
   [5 * word * slots + arena] bytes: about 190 B per 64-byte state here.
   The one-word slots, three per-state words and chunked arena must hold
   the same states in at most two thirds of that. *)
let test_stateset_memory_guard () =
  let n = 200_000 and state_bytes = 64 in
  let set = Stateset.create () and p = Pack.create () in
  for i = 0 to n - 1 do
    Pack.reset p;
    for k = 0 to (state_bytes / 8) - 1 do
      Pack.add_fixed p ~width:8 (i + (k * n))
    done;
    ignore (Stateset.find_or_add set p ~p0:i ~p1:0)
  done;
  let st = Stateset.stats set in
  Alcotest.(check int) "states" n st.Stateset.states;
  Alcotest.(check int) "arena_bytes counts packed bytes" (n * state_bytes)
    st.Stateset.arena_bytes;
  let word = Sys.word_size / 8 in
  let rec doubled cap = if cap >= n * state_bytes then cap else doubled (2 * cap) in
  let previous = (5 * word * st.Stateset.slots) + doubled 512 in
  if 3 * st.Stateset.resident_bytes > 2 * previous then
    Alcotest.failf "%d B/state resident, bound %d B/state (previous layout %d)"
      (st.Stateset.resident_bytes / n)
      (2 * previous / 3 / n)
      (previous / n)

(* --- Rings ----------------------------------------------------------- *)

let test_rings_fifo () =
  let r = Rings.create 3 in
  Rings.push r 0 10;
  Rings.push r 0 10;
  Rings.push r 0 12;
  Rings.push r 2 8;
  Rings.push r 2 15;
  Alcotest.(check int) "per-actor length" 3 (Rings.length r 0);
  Alcotest.(check int) "untouched ring empty" 0 (Rings.length r 1);
  let order = ref [] in
  Rings.iter r 0 (fun c -> order := c :: !order);
  Alcotest.(check (list int)) "FIFO iteration" [ 10; 10; 12 ]
    (List.rev !order);
  Alcotest.(check int) "pop the oldest" 8 (Rings.pop_front r 2);
  order := [];
  Rings.iter r 2 (fun c -> order := c :: !order);
  Alcotest.(check (list int)) "iteration after a pop" [ 15 ] !order

let test_rings_growth () =
  (* Push far past the initial ring capacity with interleaved pops; the
     unrolled copies must preserve FIFO order. *)
  let r = Rings.create 1 in
  let next_pop = ref 0 in
  for c = 0 to 499 do
    Rings.push r 0 c;
    if c mod 3 = 2 then begin
      Alcotest.(check int) "pops in push order" !next_pop (Rings.pop_front r 0);
      incr next_pop
    end
  done;
  let rest = ref [] in
  Rings.iter r 0 (fun c -> rest := c :: !rest);
  let expect = List.init (500 - !next_pop) (fun i -> !next_pop + i) in
  Alcotest.(check (list int)) "order survives growth" expect (List.rev !rest)

let test_rings_pop_front () =
  let r = Rings.create 2 in
  Rings.push r 0 10;
  Rings.push r 0 12;
  Rings.push r 1 11;
  Alcotest.(check int) "pop_front is FIFO" 10 (Rings.pop_front r 0);
  Alcotest.(check int) "pop_front advances" 12 (Rings.pop_front r 0);
  Alcotest.(check int) "per-actor drained" 0 (Rings.length r 0);
  Alcotest.(check int) "other actor untouched" 1 (Rings.length r 1)

(* --- Eventq ----------------------------------------------------------- *)

let test_eventq_heap_order () =
  let q = Engine.Eventq.create () in
  Alcotest.(check int) "empty min" max_int (Engine.Eventq.min_time q);
  (* Push a deliberately adversarial order with duplicates, far past the
     initial capacity. *)
  let times = List.init 300 (fun i -> (i * 7919) mod 97) in
  List.iteri (fun i t -> Engine.Eventq.push q t i) times;
  Alcotest.(check int) "length" 300 (Engine.Eventq.length q);
  let last = ref (-1) in
  let popped = ref [] in
  while not (Engine.Eventq.is_empty q) do
    let t = Engine.Eventq.min_time q in
    let a = Engine.Eventq.pop_min q in
    if t < !last then Alcotest.fail "pop times went backwards";
    last := t;
    popped := (t, a) :: !popped
  done;
  (* Every (time, actor) pair must come out exactly once. *)
  let expect = List.sort compare (List.mapi (fun i t -> (t, i)) times) in
  Alcotest.(check (list (pair int int)))
    "multiset preserved" expect
    (List.sort compare !popped)

(* --- engine vs reference: self-timed --------------------------------- *)

let case_of_graph name g taus = { Case.name; graph = g; taus }

let assert_oracle name outcome =
  match outcome with
  | Check.Oracle.Pass | Check.Oracle.Skip _ -> ()
  | Check.Oracle.Fail msg -> Alcotest.failf "%s: %s" name msg

let rng0 = Gen.Rng.create ~seed:0

let test_examples_agree () =
  let deadlocked =
    Sdfg.of_lists ~actors:[ "a"; "b" ]
      ~channels:[ ("a", "b", 1, 1, 0); ("b", "a", 1, 1, 0) ]
  in
  List.iter
    (fun (name, g, taus) ->
      assert_oracle name
        (Check.Differential.engine_vs_reference ~max_states:100_000 ~rng:rng0
           (case_of_graph name g taus)))
    [
      ("example", example_graph (), Gen.Examples.example_taus);
      ("prodcons", prodcons (), Gen.Examples.prodcons_taus);
      ("ring3", ring3 (), Gen.Examples.ring3_taus);
      ("deadlock", deadlocked, [| 1; 1 |]);
    ];
  (* Cap aborts must agree too (post-insert [>] vs pre-insert [>=]). *)
  for cap = 1 to 6 do
    assert_oracle
      (Printf.sprintf "cap-%d" cap)
      (Check.Differential.engine_vs_reference ~max_states:cap ~rng:rng0
         (case_of_graph "capped" (ring3 ()) [| 2; 3; 4 |]))
  done

let test_corpus_agrees () =
  let cases = Check.Corpus.load_dir "corpus" in
  if List.length cases < 5 then Alcotest.fail "corpus missing";
  List.iter
    (fun (c : Case.t) ->
      assert_oracle c.Case.name
        (Check.Differential.engine_vs_reference ~max_states:100_000 ~rng:rng0
           c))
    cases

let test_observer_sequences_identical () =
  (* The engines must walk the fixpoint in the same order, not merely end
     at the same answer: the observer callback streams must be equal. *)
  let trace analyze =
    let log = ref [] in
    let observer fired time = log := (fired, time) :: !log in
    ignore (analyze ~observer (example_graph ()) [| 1; 2; 3 |]);
    List.rev !log
  in
  let engine =
    trace (fun ~observer g taus -> Analysis.Selftimed.analyze ~observer g taus)
  in
  let reference =
    trace (fun ~observer g taus ->
        Analysis.Selftimed.analyze_reference ~observer g taus)
  in
  Alcotest.(check (list (pair int int)))
    "observer call sequences" reference engine

let gen_seed = QCheck2.Gen.int_range 0 1_000_000

let random_case seed =
  let rng = Gen.Rng.create ~seed in
  let app =
    Gen.Sdfgen.generate rng
      (Gen.Benchsets.set_profile 1)
      ~proc_types:Gen.Benchsets.proc_types
      ~name:(Printf.sprintf "eng%d" seed)
  in
  let g = app.Appmodel.Appgraph.graph in
  let taus =
    Array.init (Sdfg.num_actors g) (fun a ->
        Appmodel.Appgraph.max_exec_time app a)
  in
  (app, case_of_graph app.Appmodel.Appgraph.app_name g taus)

let prop_engine_equals_reference =
  qcheck ~count:120 "analyze = analyze_reference on generated graphs"
    gen_seed (fun seed ->
      let _, case = random_case seed in
      match
        Check.Differential.engine_vs_reference ~max_states:20_000
          ~rng:(Gen.Rng.create ~seed) case
      with
      | Check.Oracle.Pass | Check.Oracle.Skip _ -> true
      | Check.Oracle.Fail msg -> QCheck2.Test.fail_report msg)

(* --- engine vs reference: constrained -------------------------------- *)

let oracle_holds = function
  | Check.Oracle.Pass | Check.Oracle.Skip _ -> true
  | Check.Oracle.Fail msg -> QCheck2.Test.fail_report msg

let on_random_app oracle seed =
  let app, _ = random_case seed in
  oracle_holds (oracle ~max_states:20_000 app (Gen.Benchsets.architecture 0))

let prop_constrained_engine_equals_reference =
  qcheck ~count:30 "constrained analyze = analyze_reference" gen_seed
    (on_random_app Check.Validator.constrained_engine_agreement)

let prop_constrained_observer_per_instant =
  qcheck ~count:30 "constrained observer = reference per instant" gen_seed
    (on_random_app Check.Validator.constrained_observer_agreement)

let prop_list_scheduler_equals_reference =
  qcheck ~count:60 "list scheduler = reference" gen_seed
    (on_random_app Check.Validator.list_scheduler_agreement)

(* The paper example must be decided, not skipped, by every oracle. *)
let on_paper_example oracle () =
  let app = Appmodel.Models.example_app () in
  let arch = Appmodel.Models.example_platform () in
  match oracle ~max_states:100_000 app arch with
  | Check.Oracle.Pass -> ()
  | Check.Oracle.Skip msg -> Alcotest.failf "paper example skipped: %s" msg
  | Check.Oracle.Fail msg -> Alcotest.fail msg

let test_paper_example_constrained_agreement =
  on_paper_example Check.Validator.constrained_engine_agreement

(* Generated applications rarely enable two actors of one tile in the
   same pass of the list scheduler's scan, which is where its scan order
   shows; the paper's MP3 decoder does, so the multimedia models pin the
   ready-list order. *)
let test_multimedia_list_schedulers_agree () =
  let arch = Appmodel.Models.multimedia_platform () in
  List.iter
    (fun (app : Appmodel.Appgraph.t) ->
      match
        Check.Validator.list_scheduler_agreement ~max_states:500_000 app arch
      with
      | Check.Oracle.Pass -> ()
      | Check.Oracle.Skip msg ->
          Alcotest.failf "%s skipped: %s" app.Appmodel.Appgraph.app_name msg
      | Check.Oracle.Fail msg ->
          Alcotest.failf "%s: %s" app.Appmodel.Appgraph.app_name msg)
    [ Appmodel.Models.h263 (); Appmodel.Models.mp3 () ]

let suite =
  [
    Alcotest.test_case "pack: uint injective" `Quick test_pack_uint_injective;
    Alcotest.test_case "pack: hash/contents stable" `Quick
      test_pack_hash_matches_contents;
    Alcotest.test_case "pack: zigzag ints" `Quick test_pack_zigzag;
    Alcotest.test_case "pack: fixed widths" `Quick test_pack_fixed_width;
    Alcotest.test_case "stateset: find_or_add and resize" `Quick
      test_stateset_find_or_add;
    Alcotest.test_case "stateset: length-distinct states" `Quick
      test_stateset_prefix_states_distinct;
    prop_stateset_matches_model;
    Alcotest.test_case "stateset: payloads survive growth past 2^17" `Quick
      test_stateset_growth_payloads;
    Alcotest.test_case "stateset: 32-bit tag collision" `Quick
      test_stateset_tag_collision;
    Alcotest.test_case "stateset: tag collision with a prefix" `Quick
      test_stateset_prefix_tag_collision;
    Alcotest.test_case "stateset: resident bytes guard" `Quick
      test_stateset_memory_guard;
    Alcotest.test_case "rings: FIFO and iteration" `Quick test_rings_fifo;
    Alcotest.test_case "rings: growth preserves order" `Quick
      test_rings_growth;
    Alcotest.test_case "engine = reference on examples" `Quick
      test_examples_agree;
    Alcotest.test_case "engine = reference on the corpus" `Quick
      test_corpus_agrees;
    Alcotest.test_case "observer sequences identical" `Quick
      test_observer_sequences_identical;
    prop_engine_equals_reference;
    Alcotest.test_case "rings: pop_front is FIFO" `Quick test_rings_pop_front;
    Alcotest.test_case "eventq: heap order" `Quick test_eventq_heap_order;
    prop_constrained_engine_equals_reference;
    Alcotest.test_case "paper example: constrained engines agree" `Quick
      test_paper_example_constrained_agreement;
    prop_constrained_observer_per_instant;
    Alcotest.test_case "paper example: observers agree per instant" `Quick
      (on_paper_example Check.Validator.constrained_observer_agreement);
    prop_list_scheduler_equals_reference;
    Alcotest.test_case "paper example: list schedulers agree" `Quick
      (on_paper_example Check.Validator.list_scheduler_agreement);
    Alcotest.test_case "multimedia models: list schedulers agree" `Quick
      test_multimedia_list_schedulers_agree;
  ]
