(* Eventlog overhead on the Table 1 / Table 2 microbenchmark programs
   (see DESIGN.md §10, "Overhead methodology").

   Each program is run three ways:

   - disabled: the shipped default — every instrumentation site is a
     single untaken branch;
   - enabled:  a Trace session is live and the machine emits fiber,
     effect and FFI events into the ring.

   Before timing anything, the harness asserts that the cost-counter
   sets of a disabled run and an enabled run are identical entry for
   entry: instrumentation may cost wall time when switched on, but it
   must never move a counter, or the pinned Table 1/2 outputs would
   drift.

   Usage:
     trace_overhead.exe           full sizes, one table row per program
     trace_overhead.exe --smoke   tiny sizes, single measured run (CI) *)

module F = Retrofit_fiber
module B = Retrofit_harness.Bench
module Counter = Retrofit_util.Counter
module Trace = Retrofit_trace.Trace

let smoke =
  let smoke = ref false in
  Arg.parse
    [ ("--smoke", Arg.Set smoke, " tiny sizes, single measured run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "trace_overhead [--smoke]";
  !smoke

let warmups = if smoke then 0 else 2

let runs = if smoke then 1 else 5

let scale full = if smoke then max 1 (full / 20) else full

(* Table 1 (no effects) and Table 2 (handlers, perform, reperform)
   representatives.  Sizes follow Exp_table1/Exp_table2. *)
let programs =
  [
    ("fib", F.Programs.fib ~n:(if smoke then 10 else 16), []);
    ("exnraise", F.Programs.exnraise ~iters:(scale 2_000), []);
    ("extcall", F.Programs.extcall ~iters:(scale 2_000), [ F.Programs.c_identity ]);
    ("callback", F.Programs.callback ~iters:(scale 2_000), F.Programs.standard_cfuns);
    ("effects", F.Programs.effect_roundtrip ~iters:(scale 2_000), []);
    ("reperform", F.Programs.effect_depth ~depth:8 ~iters:(scale 200), []);
  ]

let assert_counters_identical name off on =
  if Counter.to_list off <> Counter.to_list on then begin
    Printf.eprintf
      "FAIL %s: enabling the eventlog changed the cost counters:\n%s\n" name
      (String.concat "\n"
         (List.map
            (fun (k, d) -> Printf.sprintf "  %-24s %+d" k d)
            (Counter.diff on off)));
    exit 1
  end

let () =
  Printf.printf "eventlog overhead, disabled vs enabled%s\n"
    (if smoke then " (smoke mode)" else "");
  Printf.printf "  %-10s %12s %12s %9s %10s\n" "program" "off ns" "on ns"
    "overhead" "events";
  List.iter
    (fun (name, prog, cfuns) ->
      let compiled = F.Compile.compile prog in
      let run () = F.Machine.run ~cfuns F.Config.mc compiled in
      let _, c_off = run () in
      let (_, c_on), ring = Trace.scoped ~capacity:(1 lsl 18) run in
      assert_counters_identical name c_off c_on;
      let off_ns = B.median_ns ~warmups ~runs (fun () -> ignore (run ())) in
      (* Session setup (one ring allocation) happens outside the timed
         region: the number reported is the steady-state emission cost,
         the figure a long-running traced service actually pays. *)
      let on_ns =
        let _ring = Trace.start ~capacity:(1 lsl 18) () in
        let ns = B.median_ns ~warmups ~runs (fun () -> ignore (run ())) in
        ignore (Trace.stop ());
        ns
      in
      Printf.printf "  %-10s %12.0f %12.0f %8.1f%% %10d\n%!" name off_ns on_ns
        ((on_ns -. off_ns) /. off_ns *. 100.0)
        (Trace.length ring + Trace.dropped ring))
    programs;
  print_endline "counters identical with the eventlog on and off: OK"
