(* Seeded inputs. The graphs themselves come from fixed streams — the
   paper's Section 10.1 sequences and one fixed SDF3-XML corpus — because
   a benchmark whose content changes with the seed measures mostly which
   heavy graphs the seed happened to draw. The run's seed draws every
   order: grid cells, batch cases, the serve schedule and the multimedia
   application order. The program under test only ever sees the
   generated graphs and files. *)

let rng ~seed ~stream = Gen.Rng.create ~seed:((seed * 1_000_003) + stream)

(* A seeded permutation of [xs]. *)
let shuffle g xs =
  let a = Array.of_list xs in
  Gen.Rng.shuffle g a;
  Array.to_list a

(* The corpus stream's fixed seed. *)
let corpus_seed = 2007

(* An SDF3-XML corpus of [count] cases cycling through the profiles of
   sets 1-4 (set 4 mixes the other three), written to [dir]. Returns the
   case file names in order; a smaller corpus is a prefix of a larger. *)
let corpus ~count ~dir =
  Util.mkdir_p dir;
  let g = rng ~seed:corpus_seed ~stream:31_337 in
  List.init count (fun i ->
      let set = 1 + (i mod 4) in
      let profile =
        Gen.Benchsets.set_profile (if set <= 3 then set else 1 + (i / 4 mod 3))
      in
      let name = Printf.sprintf "case%04d" i in
      let app =
        Gen.Sdfgen.generate (Gen.Rng.split g) profile
          ~proc_types:Gen.Benchsets.proc_types ~name
      in
      let file = name ^ ".xml" in
      Appmodel.Sdf3_xml.write_app_file (Filename.concat dir file) app;
      file)
