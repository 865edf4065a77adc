(* The benchmark of record. One invocation runs one seeded workload, checks
   every output, and prints each metric by name and unit; the last line
   of stdout is the JSON result. Usually driven by perfbench/run.py,
   which builds this program and sdf3_serve first:

     bench.exe --workload grid --seed 1 --seconds 10 --trace 0 \
       --workdir perfbench/.run --serve-bin _build/default/bin/sdf3_serve.exe

   Exit codes: 0 ok; 1 a correctness check failed; 2 bad usage. *)

open Perfbench

let workloads = [ "grid"; "multimedia"; "batch" ]

(* Program-side set-up of the in-process workloads, run in a fresh
   process by [--setup-probe]: everything before the first timed
   operation can start, input generation excluded. *)
let setup_probe = function
  | "grid" -> ignore (Grid.setup ())
  | "multimedia" -> ignore (Multimedia.setup ())
  | "batch" -> Batch.setup ()
  | w -> invalid_arg ("no set-up probe for " ^ w)

(* Median exec-to-ready time of [n] fresh processes. *)
let setup_seconds workload ~n =
  let once () =
    let rd, wr = Unix.pipe ~cloexec:true () in
    let t0 = Util.now () in
    let pid =
      Unix.create_process Sys.executable_name
        [| Sys.executable_name; "--setup-probe"; workload |]
        Unix.stdin wr Unix.stderr
    in
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let line = try input_line ic with End_of_file -> "" in
    let dt = Util.now () -. t0 in
    close_in ic;
    let _, st = Unix.waitpid [] pid in
    if line <> "ready" || st <> Unix.WEXITED 0 then
      Util.incorrect "set-up probe for %s failed" workload;
    dt
  in
  let xs = Util.sorted (List.init n (fun _ -> once ())) in
  (Util.median xs, Array.length xs)

let run ~workload ~seed ~seconds ~trace ~workdir ~serve_bin =
  let ctx = { Ctx.seed; seconds; trace; workdir; serve_bin } in
  Util.mkdir_p workdir;
  let outcome =
    match workload with
    | "grid" -> Grid.run ctx
    | "multimedia" -> Multimedia.run ctx
    | _ -> Batch.run ctx
  in
  let s, n = setup_seconds workload ~n:41 in
  let setup = Metric.v "setup_s" "s" s ~base:(Printf.sprintf "median of %d process starts" n) in
  let e2e = Catalogue.complete ~fill:false Catalogue.end_to_end (setup :: outcome.Ctx.end_to_end) in
  Metric.print_table ~title:(workload ^ " end to end") e2e;
  let metrics =
    if trace then begin
      let layers = Catalogue.complete ~fill:true Catalogue.per_layer outcome.Ctx.layers in
      Metric.print_table ~title:(workload ^ " per layer (traced)") layers;
      layers
    end
    else e2e
  in
  print_endline
    (Metric.json_line ~correct:true ~attempted:outcome.Ctx.attempted
       ~failed:outcome.Ctx.failed metrics)

let usage () =
  prerr_endline
    "usage: bench.exe --workload grid|multimedia|batch --seed N \
     --seconds S --trace 0|1 --workdir DIR --serve-bin PATH\n\
    \       bench.exe --setup-probe WORKLOAD";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some i -> i | None -> usage () in
  match List.assoc_opt "setup-probe" opts with
  | Some w ->
      setup_probe w;
      print_endline "ready";
      Par.set_jobs 1;
      exit 0
  | None -> (
      let workload = get "workload" in
      if not (List.mem workload workloads) then usage ();
      let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
      let seconds = int "seconds" in
      if seconds < 1 then usage ();
      try
        run ~workload ~seed:(int "seed") ~seconds:(float_of_int seconds) ~trace
          ~workdir:(get "workdir") ~serve_bin:(get "serve-bin")
      with Util.Incorrect msg ->
        Printf.eprintf "bench: INCORRECT: %s\n%!" msg;
        exit 1)
