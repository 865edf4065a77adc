(* Timeline tracing: Chrome trace-event export validated with the in-repo
   reader ([Obs.Trace.validate]) plus hand-walked structural checks —
   balanced B/E pairs and non-decreasing timestamps per track — under a
   real [Par] fan-out, and the deterministic pieces of the HTML report
   generator. *)

(* Run [f] with telemetry and tracing on, always restoring the defaults
   (tracing off, telemetry off, one-domain pool). *)
let with_trace f =
  Obs.reset ();
  Obs.Trace.reset ();
  Obs.set_enabled true;
  Obs.Trace.set_thread_name "main";
  Obs.Trace.start ();
  Fun.protect
    ~finally:(fun () ->
      Par.set_jobs 1;
      Obs.Trace.reset ();
      Obs.set_enabled false;
      Obs.reset ())
    f

let events_of json =
  match json with
  | Obs.Json.List evs -> evs
  | _ -> Alcotest.fail "trace is not a JSON array"

let str_field ev k =
  match Obs.Json.member k ev with
  | Some (Obs.Json.String s) -> Some s
  | _ -> None

let int_field ev k =
  match Obs.Json.member k ev with Some (Obs.Json.Int i) -> Some i | _ -> None

let ts_field ev =
  match Obs.Json.member "ts" ev with
  | Some (Obs.Json.Int i) -> float_of_int i
  | Some (Obs.Json.Float f) -> f
  | _ -> Alcotest.fail "event without ts"

(* The structural walk the validator also performs, done by hand so the
   test does not only trust the code under test: per track, timestamps
   never decrease and B/E nest like parentheses with matching names. *)
let check_tracks evs =
  let tracks = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      match (str_field ev "ph", int_field ev "tid") with
      | Some "M", _ | None, _ | _, None -> ()
      | Some ph, Some tid ->
          let last_ts, stack =
            Option.value ~default:(neg_infinity, [])
              (Hashtbl.find_opt tracks tid)
          in
          let ts = ts_field ev in
          Alcotest.(check bool) "ts non-decreasing per tid" true
            (ts >= last_ts);
          let stack =
            match ph with
            | "B" -> Option.value ~default:"?" (str_field ev "name") :: stack
            | "E" -> (
                match stack with
                | top :: rest ->
                    Alcotest.(check string) "E matches innermost B" top
                      (Option.value ~default:"?" (str_field ev "name"));
                    rest
                | [] -> Alcotest.fail "E without matching B")
            | _ -> stack
          in
          Hashtbl.replace tracks tid (ts, stack))
    evs;
  Hashtbl.iter
    (fun tid (_, stack) ->
      if stack <> [] then
        Alcotest.failf "tid %d ends with %d unclosed spans" tid
          (List.length stack))
    tracks;
  Hashtbl.length tracks

let test_trace_export_under_par () =
  with_trace (fun () ->
      Par.set_jobs 2;
      Obs.Span.with_ "timeline.outer" (fun () ->
          let squares =
            Par.map
              (fun i ->
                Obs.Span.with_ "timeline.task" (fun () -> i * i))
              [ 1; 2; 3; 4; 5; 6; 7; 8 ]
          in
          Alcotest.(check (list int)) "par result intact"
            [ 1; 4; 9; 16; 25; 36; 49; 64 ] squares);
      Obs.Trace.instant "timeline.done";
      let text = Obs.Trace.to_string () in
      let json =
        match Obs.Json.parse text with
        | Ok j -> j
        | Error e -> Alcotest.failf "trace JSON rejected: %s" e
      in
      (match Obs.Trace.validate json with
      | Ok s ->
          Alcotest.(check bool) "events present" true (s.Obs.Trace.events > 0)
      | Error e -> Alcotest.failf "validator rejected the trace: %s" e);
      let evs = events_of json in
      let n_tracks = check_tracks evs in
      Alcotest.(check bool) "at least the main track" true (n_tracks >= 1);
      (* Every non-metadata event carries pid 1 and a name. *)
      List.iter
        (fun ev ->
          Alcotest.(check bool) "pid 1" true (int_field ev "pid" = Some 1);
          Alcotest.(check bool) "named" true (str_field ev "name" <> None))
        evs)

let test_trace_distinct_tids () =
  with_trace (fun () ->
      (* Two explicit domains guarantee two distinct tids in the trace,
         independent of how the pool schedules its batches. *)
      let spin name =
        Domain.spawn (fun () ->
            Obs.Span.with_ name (fun () -> Obs.Trace.instant (name ^ ".tick")))
      in
      let d1 = spin "timeline.d1" in
      let d2 = spin "timeline.d2" in
      Domain.join d1;
      Domain.join d2;
      Obs.Span.with_ "timeline.main" ignore;
      let json =
        match Obs.Json.parse (Obs.Trace.to_string ()) with
        | Ok j -> j
        | Error e -> Alcotest.failf "trace JSON rejected: %s" e
      in
      match Obs.Trace.validate json with
      | Ok s ->
          Alcotest.(check bool) "separate domains get separate tracks" true
            (s.Obs.Trace.tracks >= 2)
      | Error e -> Alcotest.failf "validator rejected the trace: %s" e)

let test_trace_async_arcs_and_validation_errors () =
  with_trace (fun () ->
      Obs.Trace.async_begin ~cat:"batch" ~id:7 "case-x";
      Obs.Trace.async_end ~cat:"batch" ~id:7 "case-x";
      (match Obs.Json.parse (Obs.Trace.to_string ()) with
      | Error e -> Alcotest.failf "trace JSON rejected: %s" e
      | Ok json -> (
          match Obs.Trace.validate json with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "async arcs rejected: %s" e));
      (* The validator rejects structurally broken traces. *)
      let bad ph_list =
        Obs.Json.List
          (List.map
             (fun (name, ph, ts) ->
               Obs.Json.Assoc
                 [
                   ("name", Obs.Json.String name);
                   ("ph", Obs.Json.String ph);
                   ("ts", Obs.Json.Float ts);
                   ("pid", Obs.Json.Int 1);
                   ("tid", Obs.Json.Int 0);
                 ])
             ph_list)
      in
      (match Obs.Trace.validate (bad [ ("a", "B", 1.); ("b", "E", 2.) ]) with
      | Ok _ -> Alcotest.fail "mismatched B/E accepted"
      | Error _ -> ());
      (match Obs.Trace.validate (bad [ ("a", "B", 5.); ("a", "E", 2.) ]) with
      | Ok _ -> Alcotest.fail "decreasing ts accepted"
      | Error _ -> ());
      match Obs.Trace.validate (bad [ ("a", "B", 1.) ]) with
      | Ok _ -> Alcotest.fail "unclosed span accepted"
      | Error _ -> ())

let test_report_html () =
  let registry_json =
    {|{"schema_version": 2,
       "counters": {"budget.trips.states": 2, "flow.attempts": 3},
       "gauges": {"engine.arena_bytes": 4096},
       "timers": {"strategy.bind":
         {"count": 4, "total_s": 2.0, "mean_s": 0.5,
          "stddev_s": 0.1, "min_s": 0.4, "max_s": 0.7}},
       "histograms": {"engine.probe_len":
         {"count": 10, "p50": 2.0, "p90": 4.0, "p99": 8.0, "max": 9.0}},
       "events": [], "events_dropped": {}}|}
  in
  let journal_text =
    String.concat "\n"
      [
        {|{"case": "a.xml", "status": "allocated", "throughput": "1/3"}|};
        {|{"case": "b.xml", "status": "partial", "reason": "budget.states"}|};
        {|{"case": "c.xml", "status": "failed", "reason": "infeasible"}|};
      ]
  in
  let registry =
    match Obs.Json.parse registry_json with
    | Error e -> Alcotest.failf "fixture JSON: %s" e
    | Ok j -> (
        match Report.registry_of_json ~label:"metrics.json" j with
        | Error e -> Alcotest.failf "registry parse: %s" e
        | Ok r -> r)
  in
  let journal =
    match Report.journal_of_string ~label:"journal.jsonl" journal_text with
    | Error e -> Alcotest.failf "journal parse: %s" e
    | Ok j -> j
  in
  let html =
    Report.html ~registries:[ registry ] ~journals:[ journal ]
      ~traces:[ "trace.json" ] ()
  in
  let contains needle =
    let nl = String.length needle and hl = String.length html in
    let rec go i =
      i + nl <= hl && (String.sub html i nl = needle || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (contains needle))
    [
      "<table id=\"phase-table\">";
      "class=\"sparkline\"";
      "strategy.bind";
      "budget.trips.states";
      "engine.probe_len";
      "trace.json";
      "infeasible";
    ];
  (* Deterministic: same inputs, same bytes. *)
  let html2 =
    Report.html ~registries:[ registry ] ~journals:[ journal ]
      ~traces:[ "trace.json" ] ()
  in
  Alcotest.(check string) "byte-for-byte deterministic" html html2;
  (* Malformed journal lines fail with a located error. *)
  match Report.journal_of_string ~label:"j" "{\"case\": \"x\"}" with
  | Ok _ -> Alcotest.fail "journal line without status accepted"
  | Error e ->
      Alcotest.(check bool) "error names the line" true
        (String.length e >= 3 && String.sub e 0 3 = "j:1")

let suite =
  [
    Alcotest.test_case "trace export under Par fan-out" `Quick
      test_trace_export_under_par;
    Alcotest.test_case "distinct domains make distinct tracks" `Quick
      test_trace_distinct_tids;
    Alcotest.test_case "async arcs and validator rejections" `Quick
      test_trace_async_arcs_and_validation_errors;
    Alcotest.test_case "report html" `Quick test_report_html;
  ]
