module Sdfg = Sdf.Sdfg
module Appgraph = Appmodel.Appgraph

type config = {
  seed : int;
  count : int;
  time_budget : float option;
  max_states : int;
  mutant : bool;
  scenario_mutant : bool;
  corpus_dir : string option;
  app_every : int;
  log : string -> unit;
}

let default =
  {
    seed = 1;
    count = 200;
    time_budget = None;
    max_states = 50_000;
    mutant = false;
    scenario_mutant = false;
    corpus_dir = None;
    app_every = 10;
    log = ignore;
  }

(* Small graphs with small repetition vectors: the oracles replay every
   case through half a dozen state-space explorations, so the per-case
   state spaces must stay tiny for a 500-case run to be a test, not a
   benchmark. *)
let fuzz_profile =
  Gen.Sdfgen.
    {
      p_name = "fuzz";
      n_actors = (2, 6);
      max_rep = 3;
      multirate_prob = 0.4;
      extra_edge_prob = 0.2;
      self_loop_prob = 0.3;
      tau = (1, 6);
      tau_spread = 0.5;
      mu = (100, 1_000);
      sz = (50, 200);
      alpha = (1, 2);
      beta = (20, 100);
      lambda_divisor = 8;
    }

type counterexample = {
  oracle : string;
  message : string;
  original : Case.t;
  shrunk : Case.t;
  shrink_steps : int;
  written : string option;
}

type summary = {
  cases : int;
  checks : int;
  skips : int;
  counterexample : counterexample option;
}

let throughput_oracles = Differential.oracles @ Metamorphic.oracles

let sanitize name =
  String.map (fun c -> if c = '.' || c = '/' then '-' else c) name

let run cfg =
  Differential.mutant := cfg.mutant;
  Differential.scenario_mutant := cfg.scenario_mutant;
  Fun.protect ~finally:(fun () ->
      Differential.mutant := false;
      Differential.scenario_mutant := false)
  @@ fun () ->
  let master = Gen.Rng.create ~seed:cfg.seed in
  let deadline =
    Option.map (fun s -> Unix.gettimeofday () +. s) cfg.time_budget
  in
  let out_of_time () =
    match deadline with
    | Some d -> Unix.gettimeofday () > d
    | None -> false
  in
  let checks = ref 0 and skips = ref 0 in
  let arch = Gen.Benchsets.architecture 0 in
  let max_states = cfg.max_states in
  (* One deterministic oracle seed per case: shrinking re-evaluates the
     failing oracle with a fresh RNG from the same seed, so the predicate
     is stable across candidates. *)
  let run_oracle (o : Oracle.t) ~oracle_seed case =
    o.Oracle.run ~max_states ~rng:(Gen.Rng.create ~seed:oracle_seed) case
  in
  let first_failure ~oracle_seed case =
    let rec go = function
      | [] -> None
      | o :: rest -> (
          incr checks;
          match run_oracle o ~oracle_seed case with
          | Oracle.Pass -> go rest
          | Oracle.Skip _ ->
              incr skips;
              go rest
          | Oracle.Fail msg -> Some (o, msg))
    in
    go throughput_oracles
  in
  let shrink_and_record i (o : Oracle.t) ~oracle_seed msg (case : Case.t) =
    cfg.log
      (Printf.sprintf "fuzz: FAIL %s on %s" o.Oracle.name case.Case.name);
    cfg.log ("  " ^ msg);
    let fails sc =
      match
        run_oracle o ~oracle_seed (Case.of_shrink ~name:case.Case.name sc)
      with
      | Oracle.Fail _ -> true
      | Oracle.Pass | Oracle.Skip _ -> false
      | exception _ -> false
    in
    let r = Shrink.minimize ~fails (Case.to_shrink case) in
    let shrunk =
      Case.of_shrink
        ~name:
          (Printf.sprintf "cex-%s-s%d-%d" (sanitize o.Oracle.name) cfg.seed i)
        r.Shrink.case
    in
    let written =
      Option.map (fun dir -> Corpus.save ~dir shrunk) cfg.corpus_dir
    in
    {
      oracle = o.Oracle.name;
      message = msg;
      original = case;
      shrunk;
      shrink_steps = r.Shrink.steps;
      written;
    }
  in
  let app_failure i (app : Appgraph.t) case_rng =
    if cfg.app_every <= 0 || (i + 1) mod cfg.app_every <> 0 then None
    else begin
      let multi () =
        let extra k =
          Gen.Sdfgen.generate (Gen.Rng.split case_rng) fuzz_profile
            ~proc_types:Gen.Benchsets.proc_types
            ~name:(Printf.sprintf "%s-m%d" app.Appgraph.app_name k)
        in
        Validator.multi_app_invariance ~max_states [ app; extra 0; extra 1 ]
          arch
      in
      let checks_here =
        [
          ( "constrained.engine-vs-reference",
            fun () ->
              Validator.constrained_engine_agreement ~max_states app arch );
          ( "diff.list-scheduler-vs-reference",
            fun () -> Validator.list_scheduler_agreement ~max_states app arch
          );
          ( "flow.invariance",
            fun () -> Validator.flow_invariance ~max_states app arch );
        ]
        @
        if (i + 1) mod (cfg.app_every * 5) = 0 then
          [ ("multi-app.invariance", multi) ]
        else []
      in
      let rec go = function
        | [] -> None
        | (name, check) :: rest -> (
            incr checks;
            match check () with
            | Oracle.Fail msg -> Some (name, msg)
            | Oracle.Skip _ ->
                incr skips;
                go rest
            | Oracle.Pass -> go rest)
      in
      go checks_here
    end
  in
  let finish cases counterexample =
    { cases; checks = !checks; skips = !skips; counterexample }
  in
  let rec loop i =
    if i >= cfg.count || out_of_time () then finish i None
    else begin
      let case_rng = Gen.Rng.split master in
      let oracle_seed = cfg.seed + (1_000_003 * (i + 1)) in
      let app =
        Gen.Sdfgen.generate case_rng fuzz_profile
          ~proc_types:Gen.Benchsets.proc_types
          ~name:(Printf.sprintf "fz%d-%d" cfg.seed i)
      in
      let g = app.Appgraph.graph in
      let taus =
        Array.init (Sdfg.num_actors g) (fun a -> Appgraph.max_exec_time app a)
      in
      let case = { Case.name = app.Appgraph.app_name; graph = g; taus } in
      match first_failure ~oracle_seed case with
      | Some (o, msg) ->
          finish (i + 1) (Some (shrink_and_record i o ~oracle_seed msg case))
      | None -> (
          match app_failure i app case_rng with
          | Some (oracle, message) ->
              (* Application-level counterexamples are not bare SDFGs, so
                 they are reported (with the reproducing seed) rather than
                 shrunk into the corpus. *)
              finish (i + 1)
                (Some
                   {
                     oracle;
                     message;
                     original = case;
                     shrunk = case;
                     shrink_steps = 0;
                     written = None;
                   })
          | None -> loop (i + 1))
    end
  in
  loop 0
