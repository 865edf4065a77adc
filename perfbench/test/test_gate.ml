(* The correctness gate must accept a genuine allocation and reject
   tampered ones: shrunken slices, an inflated reported throughput, and
   an actor moved onto a tile that cannot run it. *)

open Perfbench
module Strategy = Core.Strategy

let fails = ref 0

let expect what ok =
  Printf.printf "%-48s %s\n" what (if ok then "ok" else "FAILED");
  if not ok then incr fails

let rejected a = Result.is_error (Gate.check_allocation a)

let () =
  let app = Appmodel.Models.example_app () in
  let arch = Appmodel.Models.example_platform () in
  let a =
    match Strategy.allocate app arch with
    | Ok a -> a
    | Error f -> Format.kasprintf failwith "example does not allocate: %a" Strategy.pp_failure f
  in
  expect "genuine allocation accepted" (Gate.check_allocation a = Ok ());
  let starved = { a with Strategy.slices = Array.map (fun s -> min s 1) a.Strategy.slices } in
  expect "slices cut to 1 rejected" (rejected starved);
  let inflated =
    {
      a with
      Strategy.throughput =
        Sdf.Rat.add a.Strategy.throughput a.Strategy.app.Appmodel.Appgraph.lambda;
    }
  in
  expect "inflated throughput rejected" (rejected inflated);
  let tiles = Array.length a.Strategy.slices in
  let moved =
    let b = Array.copy a.Strategy.binding in
    b.(0) <- (b.(0) + 1) mod tiles;
    { a with Strategy.binding = b }
  in
  expect "actor moved to another tile rejected" (rejected moved);
  (* The gate's failure path is what makes the benchmark exit nonzero. *)
  expect "check_all raises on a tampered allocation"
    (match Gate.check_all [ a; starved ] with
    | _ -> false
    | exception Util.Incorrect _ -> true);
  if !fails > 0 then exit 1
