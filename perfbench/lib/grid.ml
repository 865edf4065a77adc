(* grid: the paper's E8-E10 protocol. 5 cost functions x sets 1-4 x 3
   sequences x 3 architectures = 180 cells; each cell allocates one of
   the [Benchsets] 40-application sequences with one
   [Multi_app.allocate_until_failure] call on one domain. The seed sets
   the order of the cells. The memo is cleared at the start of each pass
   and left on within it, as the CLIs run it. *)

let cost_functions =
  [ (1., 0., 0.); (0., 1., 0.); (0., 0., 1.); (1., 1., 1.); (0., 1., 2.) ]

(* Program-side set-up: the three architectures. *)
let setup () = Array.init 3 Gen.Benchsets.architecture

let run (t : Ctx.t) =
  let seqs =
    Array.init 4 (fun s ->
        Array.init 3 (fun q -> Gen.Benchsets.sequence ~set:(s + 1) ~seq:q ~count:40))
  in
  let archs = setup () in
  let cells =
    List.concat_map
      (fun (c1, c2, c3) ->
        List.concat_map
          (fun set ->
            List.concat_map
              (fun seq ->
                List.map
                  (fun arch ->
                    {
                      Multi.weights = Core.Cost.weights c1 c2 c3;
                      apps = seqs.(set - 1).(seq);
                      arch = archs.(arch);
                    })
                  [ 0; 1; 2 ])
              [ 0; 1; 2 ])
          [ 1; 2; 3; 4 ])
      cost_functions
  in
  let graphs = List.concat_map Array.to_list (Array.to_list seqs) |> List.concat in
  Multi.run t ~name:"grid" ~max_states:200_000 ~clear_each:false ~graphs
    (* Every fourth graph: exploring the whole set's self-timed state
       spaces takes seconds. *)
    ~selftimed:(List.filteri (fun i _ -> i mod 4 = 0) graphs)
    (Inputs.shuffle (Inputs.rng ~seed:t.Ctx.seed ~stream:180) cells)
