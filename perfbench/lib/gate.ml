(* The correctness gate, run outside the timed region.

   Every allocation is re-verified twice over: by the program's own
   [Strategy.is_valid] (resource constraints 1-4, slices within the
   remaining wheels, memoized re-measurement against lambda), and by
   re-deriving its throughput with the reference constrained engine —
   the pre-engine exploration that shares no state encoding, no memo
   table and no telemetry with the production path. The re-derived
   throughput must meet lambda and equal the throughput the allocation
   reports.

   Outcome digests pin determinism: per application its verdict, slices
   and throughput (and, for the journaled workloads, the journal lines),
   hashed so runs, passes and the traced replica can be compared. *)

module Rat = Sdf.Rat
module Strategy = Core.Strategy

let check_allocation ?(max_states = 2_000_000) (a : Strategy.allocation) =
  let app = a.Strategy.app in
  let name = app.Appmodel.Appgraph.app_name in
  (* The gate's own analyses must not show up in the traced run's
     telemetry. *)
  let was = Obs.enabled () in
  Obs.set_enabled false;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) @@ fun () ->
  match Strategy.is_valid a a.Strategy.arch with
  | exception e -> Error (Printf.sprintf "%s: is_valid raised %s" name (Printexc.to_string e))
  | false -> Error (Printf.sprintf "%s: Strategy.is_valid rejects the allocation" name)
  | true -> (
      match
        let ba =
          Core.Bind_aware.build ~app ~arch:a.Strategy.arch
            ~binding:a.Strategy.binding ~slices:a.Strategy.slices ()
        in
        Core.Constrained.analyze_reference ~max_states ba
          ~schedules:a.Strategy.schedules
      with
      | exception e ->
          Error
            (Printf.sprintf "%s: reference engine raised %s" name
               (Printexc.to_string e))
      | r ->
          let thr = r.Core.Constrained.throughput in
          if Rat.compare thr app.Appmodel.Appgraph.lambda < 0 then
            Error
              (Printf.sprintf "%s: reference throughput %s below lambda %s" name
                 (Rat.to_string thr)
                 (Rat.to_string app.Appmodel.Appgraph.lambda))
          else if Rat.compare thr a.Strategy.throughput <> 0 then
            Error
              (Printf.sprintf "%s: reference throughput %s, allocation reports %s"
                 name (Rat.to_string thr) (Rat.to_string a.Strategy.throughput))
          else Ok ())

(* Check a list of allocations; the first rejection aborts the run. *)
let check_all ?max_states allocs =
  List.iter
    (fun a ->
      match check_allocation ?max_states a with
      | Ok () -> ()
      | Error msg -> Util.incorrect "gate: %s" msg)
    allocs;
  List.length allocs

(* ------------------------------------------------------------------ *)
(* Outcome digests                                                    *)
(* ------------------------------------------------------------------ *)

let slices_string s =
  String.concat "," (Array.to_list (Array.map string_of_int s))

let allocation_line (a : Strategy.allocation) =
  Printf.sprintf "%s allocated [%s] %s" a.Strategy.app.Appmodel.Appgraph.app_name
    (slices_string a.Strategy.slices)
    (Rat.to_string a.Strategy.throughput)

let failure_line name f =
  Printf.sprintf "%s rejected %s" name (Server.Journal.failure_label f)

(* The lines of one [Multi_app] report: one per decided application. *)
let report_lines apps (r : Core.Multi_app.report) =
  let allocated = List.map allocation_line r.Core.Multi_app.allocations in
  match r.Core.Multi_app.first_failure with
  | None -> allocated
  | Some f ->
      let n = List.length r.Core.Multi_app.allocations in
      let name =
        match List.nth_opt apps n with
        | Some app -> app.Appmodel.Appgraph.app_name
        | None -> "?"
      in
      allocated @ [ failure_line name f ]

let digest lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

(* Pin a digest across runs: the first run of a (workload, seed, size)
   in a checkout records it, every later run must reproduce it. *)
let pin ~dir ~key d =
  Util.mkdir_p dir;
  let path = Filename.concat dir (key ^ ".digest") in
  if Sys.file_exists path then begin
    let before = String.trim (Util.read_file path) in
    if before <> d then
      Util.incorrect "digest %s differs from an earlier run (%s vs %s)" key d before
  end
  else Util.write_file path (d ^ "\n")
