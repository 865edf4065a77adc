(* multimedia: the paper's Section 10.3 system — three H.263 decoders and
   an MP3 decoder on the 2x2 multimedia platform, through [Multi_app]
   with tile-cost weights (2,0,1) and a 2M-state cap. One operation is
   one system allocation, with the memo cleared before it. The seed sets
   the application order; a pass runs the four rotations of that order,
   so every application is allocated first once per pass. *)

(* Program-side set-up: the four models and the platform. *)
let setup () =
  let apps =
    [
      Appmodel.Models.h263 ~name:"h263_0" ();
      Appmodel.Models.h263 ~name:"h263_1" ();
      Appmodel.Models.h263 ~name:"h263_2" ();
      Appmodel.Models.mp3 ();
    ]
  in
  (apps, Appmodel.Models.multimedia_platform ())

let rotations xs =
  List.mapi (fun i _ -> List.filteri (fun j _ -> j >= i) xs @ List.filteri (fun j _ -> j < i) xs) xs

let run (t : Ctx.t) =
  let apps, arch = setup () in
  let orders = rotations (Inputs.shuffle (Inputs.rng ~seed:t.Ctx.seed ~stream:263) apps) in
  Printf.printf "multimedia: orders %s\n"
    (String.concat " | "
       (List.map
          (fun o ->
            String.concat ","
              (List.map (fun (a : Appmodel.Appgraph.t) -> a.Appmodel.Appgraph.app_name) o))
          orders));
  Multi.run t ~name:"multimedia" ~max_states:2_000_000 ~clear_each:true ~graphs:apps
    ~selftimed:apps
    (List.map (fun apps -> { Multi.weights = Core.Cost.weights 2. 0. 1.; apps; arch }) orders)
