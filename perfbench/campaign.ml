(* The campaign workload: the CI soundness campaigns.  One job is a
   pair of [Fuzz.campaign] chunks: the one-shot campaign with the
   analyzer and the stack-policy differential, then the multishot
   campaign with the analyzer at CI's 1M fuel.  A run works through a
   fixed pool of pairs.

   The multishot chunk runs without the per-step auditor.  With it, a
   few generated multishot programs in ten thousand spend from tens of
   seconds to over five minutes in audited clone work (README.md), so
   one such program would take a run past its time limit.  The
   one-shot chunk keeps the auditor. *)

module C = Retrofit_conformance
module F = Retrofit_fiber

(* Small jobs, so that many of them make the median and the host-speed
   kernel is timed often (bench.ml). *)
let oneshot_count = 60
let multishot_count = 5
let multishot_fuel = 1_000_000
let ms_config = F.Config.with_multishot true F.Config.mc

(* Chunk seeds hash a pool index.  (The campaign's own [prog_seed] is
   an xor, so chaining it would give chunks i and j the same programs
   in swapped places.) *)
let chunk_seed pool j = Hashtbl.hash (pool, j)

(* The pool of chunk pairs, 13,000 programs, is one cycle: a run ends
   at the end of a pass, and a pass takes about 15 s on the host the
   bounds were set on.  Every seed runs the same pool, in an order the
   workload seed draws.  A pool drawn from the workload seed would move
   the figures with the draw: one program in a hundred takes over half
   of the time, so two draws of 13,000 programs differ by about a tenth
   in median job time (README.md). *)
let pool_size = 200

let count_keys =
  [
    "programs"; "fiber.audit.checks"; "dwarf.probes"; "analyzed"; "dispatch_checks";
    "bound_checks"; "pair_agree"; "pair_skip"; "policy_agree"; "policy_skip";
  ]

let stat_counts (s : C.Fuzz.stats) =
  let sum l = List.fold_left (fun acc (_, n) -> acc + n) 0 l in
  [
    ("programs", s.programs);
    ("fiber.audit.checks", s.audit_checks);
    ("dwarf.probes", s.dwarf_probes);
    ("analyzed", s.analyzed);
    ("dispatch_checks", s.dispatch_checks);
    ("bound_checks", s.bound_checks);
    ("pair_agree", sum s.agreements);
    ("pair_skip", sum s.skips);
    ("policy_agree", sum s.policy_agreements);
    ("policy_skip", sum s.policy_skips);
  ]

let add_counts a b =
  List.map (fun (k, v) -> (k, v + Option.value ~default:0 (List.assoc_opt k b))) a

let check_stats label (s : C.Fuzz.stats) =
  match s.failures with
  | [] -> None
  | f :: _ ->
      Some
        (Printf.sprintf "%s: %d campaign failures, first at program %d (seed %d)" label
           (List.length s.failures) f.C.Fuzz.index f.C.Fuzz.prog_seed)

let run_pair ~os_seed ~ms_seed () =
  let os =
    C.Fuzz.campaign ~analyze:true ~policies:C.Fuzz.default_policies ~seed:os_seed
      ~count:oneshot_count ()
  in
  let ms =
    C.Fuzz.campaign ~fiber_config:ms_config ~fib_fuel:multishot_fuel ~audit:false
      ~analyze:true ~multishot:true ~seed:ms_seed ~count:multishot_count ()
  in
  let counts = add_counts (stat_counts os) (stat_counts ms) in
  let work = os.programs + ms.programs in
  match (check_stats "one-shot" os, check_stats "multishot" ms) with
  | None, None -> Wl.ok ~counts work
  | Some e, _ | None, Some e -> Wl.fail ~counts work "%s" e

(* The traced pass: the same programs through the same layer calls
   [Fuzz.campaign] makes, one span per call.  The counts it returns
   must equal the untraced chunk's exactly.  Shrinking is not
   replicated: on a failure the job fails either way. *)
let traced_chunk sp ~multishot ~seed ~count =
  let fiber_config = if multishot then ms_config else F.Config.mc in
  let fuel = if multishot then Some multishot_fuel else None in
  let policies = if multishot then [] else C.Fuzz.default_policies in
  let policy_cfgs =
    List.map (fun p -> (F.Stack_policy.name p, F.Config.with_policy p fiber_config)) policies
  in
  let probe_cfgs = ("default", fiber_config) :: policy_cfgs in
  let counts = ref [] in
  let bump k n =
    counts := (k, n + Option.value ~default:0 (List.assoc_opt k !counts))
              :: List.remove_assoc k !counts
  in
  let errors = ref [] in
  let fiber_run ?(audit = not multishot) ?dwarf_seed ?on_perform config p =
    C.Fiber_backend.run ~config ?fuel ~audit ?dwarf_seed ?on_perform p
  in
  for i = 0 to count - 1 do
    let s = C.Fuzz.prog_seed ~seed i in
    let p =
      Spans.span sp ~cat:"conformance.gen" ~name:"Gen.program_of_seed" (fun () ->
          C.Gen.program_of_seed s)
    in
    bump "programs" 1;
    let sem =
      Spans.span sp ~cat:"semantics" ~name:"Sem_backend.run" (fun () ->
          C.Sem_backend.run ~one_shot:(not multishot) p)
    in
    let fr =
      Spans.span sp ~cat:"fiber.backend" ~name:"Fiber_backend.run" (fun () ->
          let fr = fiber_run ~dwarf_seed:s fiber_config p in
          Spans.args sp
            [
              ("audited", Bool.to_int (not multishot));
              ("audit_checks", fr.C.Fiber_backend.audit_checks);
            ];
          fr)
    in
    (* Calibration runs for the audit and DWARF shares; they are not
       part of the campaign's work and are left out of the overhead. *)
    if not multishot then
      Spans.span sp ~cat:"calibration" ~name:"audit-off" (fun () ->
          ignore (fiber_run ~audit:false ~dwarf_seed:s fiber_config p));
    Spans.span sp ~cat:"calibration" ~name:"dwarf-off" (fun () ->
        ignore (fiber_run fiber_config p));
    let nat =
      if multishot then C.Outcome.Fuel_out
      else
        Spans.span sp ~cat:"native" ~name:"Native_backend.run" (fun () ->
            C.Native_backend.run p)
    in
    let fib = fr.C.Fiber_backend.outcome in
    let pairs =
      [
        ("semantics<->fiber", C.Oracle.compare_pair sem fib);
        ("fiber<->native", C.Oracle.compare_pair fib nat);
        ("semantics<->native", C.Oracle.compare_pair sem nat);
      ]
    in
    let r =
      {
        C.Oracle.program = p;
        sem;
        fib;
        nat;
        pairs;
        audit_checks = fr.audit_checks;
        audit_violations = fr.audit_violations;
        dwarf_probes = fr.dwarf_probes;
        dwarf_failures = fr.dwarf_failures;
      }
    in
    bump "fiber.audit.checks" fr.audit_checks;
    bump "dwarf.probes" fr.dwarf_probes;
    List.iter
      (fun (_, v) ->
        match v with
        | C.Oracle.Agree -> bump "pair_agree" 1
        | C.Oracle.Skip -> bump "pair_skip" 1
        | C.Oracle.Diff -> ())
      pairs;
    if not (C.Oracle.ok r) then errors := Printf.sprintf "oracle disagreement at %d" i :: !errors;
    List.iter
      (fun (name, cfgp) ->
        let pr =
          Spans.span sp ~cat:"conformance.policy" ~name (fun () ->
              fiber_run ~dwarf_seed:s cfgp p)
        in
        bump "fiber.audit.checks" pr.C.Fiber_backend.audit_checks;
        bump "dwarf.probes" pr.C.Fiber_backend.dwarf_probes;
        let v =
          if pr.audit_violations <> [] || pr.dwarf_failures <> [] then C.Oracle.Diff
          else
            match pr.outcome with
            | C.Outcome.Exn ("Stack_overflow", _) as o when not (C.Outcome.equal fib o) ->
                C.Oracle.Skip
            | o -> C.Oracle.compare_pair fib o
        in
        match v with
        | C.Oracle.Agree -> bump "policy_agree" 1
        | C.Oracle.Skip -> bump "policy_skip" 1
        | C.Oracle.Diff -> errors := Printf.sprintf "policy %s differs at %d" name i :: !errors)
      policy_cfgs;
    bump "analyzed" 1;
    let claims =
      Spans.span sp ~cat:"analysis" ~name:"Static.analyze" (fun () -> C.Static.analyze p)
    in
    let contradiction =
      Spans.span sp ~cat:"analysis.check" ~name:"Static.check" (fun () ->
          match
            C.Static.check ~fiber_config ~sem_one_shot:(not multishot) claims r
          with
          | Some _ as c -> c
          | None ->
              let rt = C.Static.runtime_map claims in
              List.find_map
                (fun (name, cfgp) ->
                  let obs = ref [] in
                  let on_perform ~site ~eff:_ ~handler = obs := (site, handler) :: !obs in
                  let pr =
                    Spans.span sp ~cat:"analysis.probe" ~name (fun () ->
                        fiber_run ~audit:false ~on_perform cfgp p)
                  in
                  match pr.C.Fiber_backend.outcome with
                  | C.Outcome.Model_error _ -> None
                  | _ -> (
                      let observed = List.rev !obs in
                      bump "dispatch_checks" (List.length observed);
                      match C.Static.dispatch_contradiction claims rt observed with
                      | Some _ as c -> c
                      | None ->
                          bump "bound_checks" 1;
                          C.Static.bound_contradiction claims
                            ~policy:cfgp.F.Config.policy
                            ~multishot:cfgp.F.Config.multishot pr.counters))
                probe_cfgs)
    in
    Option.iter (fun c -> errors := Printf.sprintf "analysis at %d: %s" i c :: !errors) contradiction
  done;
  (!counts, !errors)

let traced_pair sp ~os_seed ~ms_seed =
  let c1, e1 = traced_chunk sp ~multishot:false ~seed:os_seed ~count:oneshot_count in
  let c2, e2 = traced_chunk sp ~multishot:true ~seed:ms_seed ~count:multishot_count in
  let g l k = Option.value ~default:0 (List.assoc_opt k l) in
  let counts = List.map (fun k -> (k, g c1 k + g c2 k)) count_keys in
  let work = List.assoc "programs" counts in
  match e1 @ e2 with
  | [] -> Wl.ok ~counts work
  | e :: _ -> Wl.fail ~counts work "%s" e

(* Job [i] is pair [i mod pool_size] of the shuffled pool.  Set-up
   replays the regression corpus and runs one warm-up pair from outside
   the pool. *)
let setup ?spans:_ ~seed () =
  (match C.Fuzz.replay_corpus () with
  | [] -> ()
  | (name, problem) :: _ -> failwith ("corpus entry " ^ name ^ ": " ^ problem));
  ignore (run_pair ~os_seed:(chunk_seed (-1) 0) ~ms_seed:(chunk_seed (-1) 1) ());
  let pair j =
    let os_seed = chunk_seed 0 (2 * j) and ms_seed = chunk_seed 0 ((2 * j) + 1) in
    {
      Wl.label = Printf.sprintf "pair%d(%d,%d)" j os_seed ms_seed;
      run = run_pair ~os_seed ~ms_seed;
      traced =
        (fun sp ->
          Spans.span sp ~cat:"conformance" ~name:"pair" (fun () ->
              traced_pair sp ~os_seed ~ms_seed));
    }
  in
  let pool = Wl.shuffle (Random.State.make [| seed; 4 |]) (Array.init pool_size pair) in
  { Wl.cycle = pool_size; counted = 20; job = (fun i -> pool.(i mod pool_size)) }

let layer_metrics ~counts spans =
  let c k = float_of_int (Option.value ~default:0 (List.assoc_opt k counts)) in
  let time cat =
    float_of_int (Spans.sum Spans.dur (List.filter (fun s -> s.Spans.cat = cat) spans))
  in
  let named name =
    float_of_int (Spans.sum Spans.dur (List.filter (fun s -> s.Spans.name = name) spans))
  in
  let nprog =
    float_of_int
      (List.length (List.filter (fun s -> s.Spans.cat = "conformance.gen") spans))
  in
  let per_prog_us x = Wl.ratio (x /. 1e3) nprog in
  let fiber_on = time "fiber.backend" in
  let audited =
    float_of_int
      (Spans.sum Spans.dur
         (List.filter (fun s -> s.Spans.cat = "fiber.backend" && Spans.arg s "audited" = 1) spans))
  in
  let audit = audited -. named "audit-off" in
  let dwarf = fiber_on -. named "dwarf-off" in
  let checks =
    float_of_int
      (Spans.sum (fun s -> Spans.arg s "audit_checks")
         (List.filter (fun s -> s.Spans.cat = "fiber.backend") spans))
  in
  let oracle = time "semantics" +. fiber_on +. time "native" in
  let jobs = List.filter (fun s -> s.Spans.cat = "conformance") spans in
  let job_self =
    List.fold_left
      (fun acc (s, self) ->
        if s.Spans.cat = "conformance" then acc +. float_of_int self else acc)
      0. (Spans.self_times spans)
  in
  [
    ("fiber.audit.share", Wl.ratio audit audited);
    ("fiber.audit.checks", c "fiber.audit.checks");
    ("fiber.audit.ns_per_check", Wl.ratio audit checks);
    ("dwarf.probe.share", Wl.ratio dwarf fiber_on);
    ("dwarf.probes", c "dwarf.probes");
    ("semantics.us_per_program", per_prog_us (time "semantics"));
    ("native.us_per_program", per_prog_us (time "native"));
    ("conformance.gen.us_per_program", per_prog_us (time "conformance.gen"));
    ("conformance.policy.us_per_program", per_prog_us (time "conformance.policy"));
    ( "conformance.skip_ratio",
      Wl.ratio (c "pair_skip") (c "pair_skip" +. c "pair_agree") );
    ( "conformance.residual.share",
      Wl.ratio job_self (float_of_int (Spans.sum Spans.dur jobs) -. time "calibration") );
    ("analysis.us_per_program", per_prog_us (time "analysis"));
    ("analysis.share", Wl.ratio (time "analysis") oracle);
  ]

let workload =
  { Wl.name = "campaign"; work_unit = "programs"; setup; layer_metrics }
