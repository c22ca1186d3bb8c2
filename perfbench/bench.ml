(* The repository benchmark.  See README.md in this directory.

   bench.exe --workload NAME[,NAME...] --seed N [--seconds S] [--trace 0|1]
             [--trace-out FILE]

   With --trace 0 the jobs run untraced for S seconds and the
   end-to-end metrics are printed; with --trace 1 an untraced pass and
   a traced pass run over the same jobs and the per-layer metrics are
   printed.  The last line of standard output is a JSON summary. *)

let workloads =
  [
    ("interp-compute", Interp.workload ~effects:false);
    ("interp-effects", Interp.workload ~effects:true);
    ("campaign", Campaign.workload);
    ("websim", Websim.workload);
  ]

(* Every per-layer metric with its unit, in the order BENCHMARK.json
   lists them.  A workload that does not reach a layer reports 0. *)
let per_layer =
  [ ("fiber.compile.us", "us") ]
  @ List.map
      (fun f -> ("fiber.machine.ns_per_op." ^ f.Interp.fam, "ns"))
      (Interp.compute_families @ Interp.effect_families)
  @ [ ("fiber.machine.ns_per_perform", "ns") ]
  @ List.map
      (fun c -> ("fiber." ^ c, "count"))
      [
        "ops"; "instructions"; "perform"; "reperform"; "switch"; "stack_grow";
        "words_copied"; "cont_copy"; "callback";
      ]
  @ [
      ("fiber.eff_tbl_probe_per_perform", "ratio");
      ("fiber.stack_cache_hit_ratio", "ratio");
      ("fiber.audit.share", "ratio");
      ("fiber.audit.checks", "count");
      ("fiber.audit.ns_per_check", "ns");
      ("dwarf.probe.share", "ratio");
      ("dwarf.probes", "count");
      ("semantics.us_per_program", "us");
      ("native.us_per_program", "us");
      ("conformance.gen.us_per_program", "us");
      ("conformance.policy.us_per_program", "us");
      ("conformance.skip_ratio", "ratio");
      ("conformance.residual.share", "ratio");
      ("analysis.us_per_program", "us");
      ("analysis.share", "ratio");
      ("httpsim.netsim.ns_per_event", "ns");
    ]
  @ List.map (fun m -> ("httpsim.server.us_per_request." ^ m, "us")) [ "mc"; "lwt"; "go" ]
  @ [
      ("httpsim.loadgen.us_per_request", "us");
      ("httpsim.supervised.us_per_request", "us");
    ]
  @ List.concat_map
      (fun m -> [ ("httpsim.sim.achieved_rps." ^ m, "1/s"); ("httpsim.sim.p999_ns." ^ m, "ns") ])
      [ "mc"; "lwt"; "go" ]
  @ [ ("httpsim.sim.completed", "count"); ("trace.overhead.share", "ratio") ]

let usage =
  "usage: bench.exe --workload NAME[,NAME...] --seed N [--seconds S] [--trace 0|1] \
   [--trace-out FILE]\n  workloads: "
  ^ String.concat ", " (List.map fst workloads)

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("bench: " ^ m);
      prerr_endline usage;
      exit 2)
    fmt

(* Strict flag parsing: every flag takes a value; anything unknown,
   repeated or malformed is an error. *)
let parse_args argv =
  let tbl = Hashtbl.create 8 in
  let known = [ "--workload"; "--seed"; "--seconds"; "--trace"; "--trace-out" ] in
  let rec go = function
    | [] -> ()
    | flag :: _ when not (List.mem flag known) -> die "unknown argument %S" flag
    | flag :: [] -> die "%s needs a value" flag
    | flag :: v :: rest ->
        if Hashtbl.mem tbl flag then die "%s given twice" flag;
        Hashtbl.add tbl flag v;
        go rest
  in
  go (List.tl (Array.to_list argv));
  let int flag ~default =
    match Hashtbl.find_opt tbl flag with
    | None -> ( match default with Some d -> d | None -> die "%s is required" flag)
    | Some v -> (
        match int_of_string_opt v with Some n -> n | None -> die "%s %S is not an integer" flag v)
  in
  let names =
    match Hashtbl.find_opt tbl "--workload" with
    | None -> die "--workload is required"
    | Some v -> String.split_on_char ',' v
  in
  let ws =
    List.map
      (fun n ->
        match List.assoc_opt n workloads with
        | Some w -> w
        | None -> die "unknown workload %S" n)
      names
  in
  let seed = int "--seed" ~default:None in
  let seconds = int "--seconds" ~default:(Some 10) in
  if seconds < 1 then die "--seconds must be at least 1";
  let trace = int "--trace" ~default:(Some 0) in
  if trace <> 0 && trace <> 1 then die "--trace must be 0 or 1";
  (ws, seed, seconds, trace = 1, Hashtbl.find_opt tbl "--trace-out")

(* ------------------------------------------------------------------ *)
(* Statistics *)

let sorted l = List.sort compare l

let quantile l q =
  let a = Array.of_list (sorted l) in
  let n = Array.length a in
  if n = 0 then 0.
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let f = pos -. float_of_int i in
    if i + 1 < n then (a.(i) *. (1. -. f)) +. (a.(i + 1) *. f) else a.(i)

let median l = quantile l 0.5

(* The highest percentile with at least ten samples beyond it: the
   11th-largest sample. *)
let tail l =
  let a = Array.of_list (sorted l) in
  let n = Array.length a in
  if n <= 10 then (a.(n - 1), 100., n)
  else (a.(n - 11), 100. *. float_of_int (n - 10) /. float_of_int n, n)

let quartiles_line name unit l =
  Printf.sprintf "  %-16s median %.6g  q1 %.6g  q3 %.6g %s  (n=%d)" name (median l)
    (quantile l 0.25) (quantile l 0.75) unit (List.length l)

(* ------------------------------------------------------------------ *)
(* Running jobs *)

let now = Spans.now_ns
let ms ns = float_of_int ns /. 1e6

type tally = {
  mutable attempted : int;
  mutable failed : int;
  first_counts : (string, (string * int) list) Hashtbl.t;  (** by job label *)
}

let tally () = { attempted = 0; failed = 0; first_counts = Hashtbl.create 64 }

(* Checks a job's result: its error, and its counts against the first
   run of the same job (every run must repeat them exactly). *)
let record tally (job : Wl.job) (r : Wl.result) =
  tally.attempted <- tally.attempted + 1;
  let counts = List.sort compare r.counts in
  let err =
    match (r.error, Hashtbl.find_opt tally.first_counts job.label) with
    | Some e, _ -> Some e
    | None, None ->
        Hashtbl.add tally.first_counts job.label counts;
        None
    | None, Some c when c = counts -> None
    | None, Some _ -> Some (job.label ^ ": counts differ from the job's first run")
  in
  match err with
  | None -> ()
  | Some e ->
      tally.failed <- tally.failed + 1;
      if tally.failed <= 5 then prerr_endline ("bench: job failed: " ^ e)

(* Counts summed over the plan's counted jobs. *)
let first_counts tally (plan : Wl.plan) =
  List.init plan.counted (fun i -> (plan.job i).label)
  |> List.concat_map (fun l ->
         Option.value ~default:[] (Hashtbl.find_opt tally.first_counts l))
  |> List.fold_left
       (fun acc (k, v) ->
         (k, v + Option.value ~default:0 (List.assoc_opt k acc)) :: List.remove_assoc k acc)
       []
  |> List.sort compare

(* Host speed.  The host's cores run other machines' work too, and
   the speed they give this process drifts by up to a factor of two
   over tens of seconds, in processor time as well as wall time.  So a
   fixed kernel is timed before and after every timed piece of work,
   and each end-to-end time is processor time scaled to the speed at
   which the kernel takes [reference_ns]: it is reported in ms of a
   host of that speed.  The kernel is the machine's hot loop in plain
   OCaml, bytecode dispatch and string-keyed counter updates, because
   host contention slows the workloads about as much as it slows that
   loop (README.md).  It is the benchmark's own code and does not
   allocate, so a change to the program cannot move it. *)
let cpu_ns () = int_of_float (Sys.time () *. 1e9)

let kernel_code = Array.init 4096 (fun i -> (i * 7919) lsr 3 land 7)

let kernel_keys = Array.init 24 (Printf.sprintf "kernel.counter.%d")

let kernel_tbl =
  let t = Hashtbl.create 64 in
  Array.iter (fun k -> Hashtbl.replace t k 0) kernel_keys;
  t

let kernel steps =
  let acc = ref 0 in
  for i = 1 to steps do
    let op = kernel_code.(i land 4095) in
    (match op with
    | 0 -> acc := !acc + 1
    | 1 -> acc := !acc lxor i
    | 2 -> acc := !acc * 3
    | 3 -> acc := !acc - i
    | 4 -> acc := !acc + (i lsr 2)
    | 5 -> acc := !acc land 0xffffff
    | 6 -> acc := !acc + 7
    | _ -> acc := !acc lsl 1);
    let k = kernel_keys.((op * 3) + (i land 1)) in
    Hashtbl.replace kernel_tbl k (Hashtbl.find kernel_tbl k + 1)
  done;
  !acc

(* About the kernel's time on the 2-core host the bounds were set on,
   in its faster spells. *)
let reference_ns = 900_000.

(* One run of about a millisecond, long enough to average over the
   host's contention the way a job does. *)
let kernel_ns () =
  let t0 = cpu_ns () in
  ignore (Sys.opaque_identity (kernel (Sys.opaque_identity 12_000)));
  float_of_int (cpu_ns () - t0)

(* [timed k f] runs [f] between kernel timings, [k] being the one taken
   before it.  Returns [f]'s result, its scaled and raw processor ns,
   and the kernel timing taken after it. *)
let timed k f =
  let t0 = cpu_ns () in
  let r = f () in
  let raw = cpu_ns () - t0 in
  let k' = kernel_ns () in
  (r, float_of_int raw *. reference_ns /. ((k +. k') /. 2.), raw, k')

(* Runs jobs 0, 1, 2, ... of the plan until [seconds] have passed and a
   cycle has ended, so every job of the cycle counts alike.  Every
   cycle has at least 24 jobs, so the tail has ten jobs beyond it.
   Returns each job's label, scaled ns, work and raw processor ns, and
   the throughput of each cycle. *)
let run_for ~seconds tally (plan : Wl.plan) =
  let deadline = now () + (seconds * 1_000_000_000) in
  let jobs = ref [] and i = ref 0 and k = ref (kernel_ns ()) in
  while now () < deadline || !i mod plan.cycle <> 0 do
    let job = plan.job !i in
    let r, t, raw, k' = timed !k job.run in
    k := k';
    record tally job r;
    jobs := (job.label, t, r.work, raw) :: !jobs;
    incr i
  done;
  let jobs = List.rev !jobs in
  (* Throughput per cycle, each job at the median time of all its runs:
     a burst of host noise moves one run of a job, not the figure. *)
  let by_label = Hashtbl.create 64 in
  List.iter
    (fun (l, t, _, _) ->
      Hashtbl.replace by_label l (t :: Option.value ~default:[] (Hashtbl.find_opt by_label l)))
    jobs;
  let rates = ref [] and c_time = ref 0. and c_work = ref 0 in
  List.iteri
    (fun k (l, _, w, _) ->
      c_time := !c_time +. median (Hashtbl.find by_label l);
      c_work := !c_work + w;
      if (k + 1) mod plan.cycle = 0 then begin
        rates := (float_of_int !c_work /. (!c_time /. 1e9)) :: !rates;
        c_time := 0.;
        c_work := 0
      end)
    jobs;
  (jobs, List.rev !rates)

let fmt v = Printf.sprintf "%.10g" v

let json_metrics l =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (n, v, u) -> Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} n (fmt v) u)
         l)
  ^ "}"

(* Set-up runs five times; its median is setup_s. *)
let setup (w : Wl.t) ~seed =
  let k = ref (kernel_ns ()) in
  let runs =
    List.init 5 (fun _ ->
        let plan, t, raw, k' = timed !k (w.setup ~seed) in
        k := k';
        (t /. 1e9, raw, plan))
  in
  let _, _, plan = List.hd runs in
  (List.map (fun (t, _, _) -> t) runs, List.map (fun (_, raw, _) -> raw) runs, plan)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.

let print_counts counts =
  print_endline "deterministic counts (first jobs; every rerun of a job must repeat them):";
  List.iter (fun (k, v) -> Printf.printf "  %-36s %d\n" k v) counts

let end_to_end (w : Wl.t) ~seed ~seconds =
  let setup_secs, setup_raw, plan = setup w ~seed in
  let tally = tally () in
  let jobs, rate = run_for ~seconds tally plan in
  let job_ms = List.map (fun (_, t, _, _) -> t /. 1e6) jobs in
  let tail_v, tail_p, n = tail job_ms in
  Printf.printf "workload %s, seed %d: %d jobs run, %d complete cycles of %d\n" w.name seed n
    (List.length rate) plan.cycle;
  let heap = peak_heap_mb () in
  Printf.printf "times at the reference speed (median and quartiles; kernel %.6g us now):\n"
    (kernel_ns () /. 1e3);
  print_endline (quartiles_line "setup_s" "s" setup_secs);
  print_endline (quartiles_line "job_ms" "ms" job_ms);
  print_endline (quartiles_line (w.work_unit ^ "_per_s") "1/s" rate);
  Printf.printf "  %-16s %.6g ms at p%.2f of %d jobs\n" "job_tail_ms" tail_v tail_p n;
  Printf.printf "  %-16s %d/%d = %.6g\n" "error_rate" tally.failed tally.attempted
    (Wl.ratio (float tally.failed) (float tally.attempted));
  (* Not in the JSON (README.md). *)
  Printf.printf "  %-16s %.6g MB (Gc top_heap_words)\n" "peak_heap_mb" heap;
  print_endline "slowest jobs (ms at the reference speed):";
  List.sort (fun (_, a, _, _) (_, b, _, _) -> compare b a) jobs
  |> List.filteri (fun i _ -> i < 11)
  |> List.iter (fun (l, t, _, _) -> Printf.printf "  %-36s %.6g\n" l (t /. 1e6));
  print_endline "unscaled processor time (median and quartiles):";
  print_endline (quartiles_line "setup_s" "s" (List.map (fun t -> float_of_int t /. 1e9) setup_raw));
  print_endline (quartiles_line "job_ms" "ms" (List.map (fun (_, _, _, raw) -> ms raw) jobs));
  print_counts (first_counts tally plan);
  ( tally,
    [
      ("setup_s", median setup_secs, "s");
      ("job_p50_ms", median job_ms, "ms");
      ("job_tail_ms", tail_v, "ms");
      ("work_per_s", median rate, "1/s");
    ] )

let out_dir = ".perfbench_out"

(* The traced run: each job runs untraced and traced, back to back,
   so host drift hits both alike.  Jobs run until [seconds] have
   passed, in whole runs of the counted jobs (a cycle, except on
   campaign, whose cycle is its whole pool).  The span budget
   stops it early where there is a span per simulated request (websim),
   so the written trace stays a few tens of MB. *)
let span_budget = 200_000

let layer_run (w : Wl.t) ~seed ~seconds ~trace_out =
  let sp = Spans.create () in
  (* Set-up under spans records the compile spans; the plan is the same
     as without. *)
  let plan = w.setup ~spans:sp ~seed () in
  let tally = tally () in
  let deadline = now () + (seconds * 1_000_000_000) in
  let plain = ref 0 and traced = ref 0 and i = ref 0 in
  while
    !i < plan.counted
    || !i mod plan.counted <> 0
    || (now () < deadline && sp.Spans.next < span_budget)
  do
    let job = plan.job !i in
    let untraced () =
      let t0 = now () in
      record tally job (job.run ());
      plain := !plain + (now () - t0)
    in
    let traced_run () =
      Spans.set_job sp ~cycle:(!i / plan.cycle) ~job:(!i mod plan.cycle);
      let first = sp.Spans.next and t0 = now () in
      record tally job (job.traced sp);
      let t1 = now () in
      (* Spans are kept newest first: walk back to this job's first. *)
      let rec calib acc = function
        | s :: rest when s.Spans.id >= first ->
            calib (if s.Spans.cat = "calibration" then acc + Spans.dur s else acc) rest
        | _ -> acc
      in
      traced := !traced + (t1 - t0 - calib 0 sp.Spans.spans)
    in
    (* Alternate which runs first, so warm caches favour neither. *)
    if !i mod 2 = 0 then (untraced (); traced_run ()) else (traced_run (); untraced ());
    incr i
  done;
  let spans = Spans.all sp in
  let overhead = (float_of_int !traced /. float_of_int !plain) -. 1. in
  let counts = first_counts tally plan in
  print_counts counts;
  let layer = w.layer_metrics ~counts spans @ [ ("trace.overhead.share", overhead) ] in
  (* Self time per layer over the traced pass. *)
  let self = Hashtbl.create 16 in
  List.iter
    (fun (s, t) ->
      if s.Spans.cat <> "calibration" then
        Hashtbl.replace self s.Spans.cat
          (t + Option.value ~default:0 (Hashtbl.find_opt self s.Spans.cat)))
    (Spans.self_times spans);
  let self = List.sort compare (List.of_seq (Hashtbl.to_seq self)) in
  let text = Spans.to_chrome spans in
  let path =
    match trace_out with
    | Some p -> p
    | None ->
        (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
        Filename.concat out_dir (Printf.sprintf "trace-%s-%d.json" w.name seed)
  in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  let valid =
    match Retrofit_trace.Export.validate_chrome text with
    | Ok n ->
        Printf.printf "trace: %d spans written to %s, valid Chrome trace_event JSON\n" n path;
        true
    | Error e ->
        Printf.printf "trace: %s is INVALID: %s\n" path e;
        false
  in
  Printf.printf
    "tracing overhead: %d jobs, traced %.4g s (calibration runs excluded) vs untraced %.4g s \
     (%+.2f%%)\n"
    !i (float_of_int !traced /. 1e9) (float_of_int !plain /. 1e9) (100. *. overhead);
  (tally, valid, layer, self)

let () =
  let ws, seed, seconds, trace, trace_out = parse_args Sys.argv in
  let multi = List.length ws > 1 in
  let prefix (w : Wl.t) n = if multi then w.name ^ ":" ^ n else n in
  let attempted = ref 0 and failed = ref 0 and correct = ref true in
  let metrics = ref [] and self_rows = ref [] in
  List.iter
    (fun (w : Wl.t) ->
      let tally =
        if not trace then begin
          let tally, m = end_to_end w ~seed ~seconds in
          metrics := !metrics @ List.map (fun (n, v, u) -> (prefix w n, v, u)) m;
          tally
        end
        else begin
          let tally, valid, layer, self = layer_run w ~seed ~seconds ~trace_out in
          if not valid then correct := false;
          self_rows := (w.name, self) :: !self_rows;
          List.iter
            (fun (n, _) ->
              if not (List.mem_assoc n per_layer) then failwith ("unlisted metric " ^ n))
            layer;
          metrics :=
            !metrics
            @ List.map
                (fun (n, u) ->
                  (prefix w n, Option.value ~default:0. (List.assoc_opt n layer), u))
                per_layer;
          tally
        end
      in
      attempted := !attempted + tally.attempted;
      failed := !failed + tally.failed)
    ws;
  if trace then begin
    let cats = List.sort_uniq compare (List.concat_map (fun (_, s) -> List.map fst s) !self_rows) in
    print_endline "per-layer self time (ms, traced pass):";
    Printf.printf "  %-16s%s\n" "workload"
      (String.concat "" (List.map (Printf.sprintf " %18s") cats));
    List.iter
      (fun (name, self) ->
        Printf.printf "  %-16s%s\n" name
          (String.concat ""
             (List.map
                (fun c -> Printf.sprintf " %18.2f" (ms (Option.value ~default:0 (List.assoc_opt c self))))
                cats)))
      (List.rev !self_rows);
    print_endline "per-layer metrics:";
    List.iter (fun (n, v, u) -> Printf.printf "  %-42s %.6g %s\n" n v u) !metrics
  end;
  if !failed > 0 then correct := false;
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": %s}|} !correct
    (max 1 !attempted) !failed (json_metrics !metrics);
  print_newline ()
