(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's per-experiment index).

   Usage:
     main.exe                 run every experiment at full size
     main.exe --quick         run every experiment at test size
     main.exe table1 fig6     run selected experiments
     main.exe --list          list experiment ids
     main.exe --bechamel      additionally run the Bechamel micro suite
       (one Test.make per table workload, with OLS per-run estimates) *)

module E = Retrofit_experiments

let bechamel_tests () =
  let open Bechamel in
  let module R = Retrofit_micro.Rec_bench in
  [
    (* Table 1 workloads *)
    Test.make ~name:"table1/exnval"
      (Staged.stage (fun () -> Retrofit_micro.Exn_bench.exnval_loop 1_000));
    Test.make ~name:"table1/exnraise"
      (Staged.stage (fun () -> Retrofit_micro.Exn_bench.exnraise_loop 1_000));
    Test.make ~name:"table1/extcall"
      (Staged.stage (fun () -> Retrofit_micro.Extern.extcall_loop 1_000));
    Test.make ~name:"table1/callback"
      (Staged.stage (fun () -> Retrofit_micro.Extern.callback_loop 1_000));
    Test.make ~name:"table1/ack" (Staged.stage (fun () -> R.plain.R.ack 2 6));
    Test.make ~name:"table1/fib" (Staged.stage (fun () -> R.plain.R.fib 18));
    Test.make ~name:"table1/motzkin" (Staged.stage (fun () -> R.plain.R.motzkin 10));
    Test.make ~name:"table1/sudan" (Staged.stage (fun () -> R.plain.R.sudan 2 2 2));
    Test.make ~name:"table1/tak" (Staged.stage (fun () -> R.plain.R.tak 14 10 4));
    (* Table 2 styles on a common workload *)
    Test.make ~name:"table2/fib-plain" (Staged.stage (fun () -> R.plain.R.fib 15));
    Test.make ~name:"table2/fib-handler" (Staged.stage (fun () -> R.handler.R.fib 15));
    Test.make ~name:"table2/fib-monad" (Staged.stage (fun () -> R.monadic.R.fib 15));
    (* Section 6.3 workloads *)
    Test.make ~name:"concurrent/generator-effect"
      (Staged.stage (fun () -> Retrofit_micro.Genbench.effect_sum ~depth:12));
    Test.make ~name:"concurrent/generator-cps"
      (Staged.stage (fun () -> Retrofit_micro.Genbench.cps_sum ~depth:12));
    Test.make ~name:"concurrent/generator-monad"
      (Staged.stage (fun () -> Retrofit_micro.Genbench.monad_sum ~depth:12));
    Test.make ~name:"concurrent/chameneos-effects"
      (Staged.stage (fun () -> Retrofit_micro.Chameneos.run_effects ~meetings:2_000));
    Test.make ~name:"concurrent/chameneos-monad"
      (Staged.stage (fun () -> Retrofit_micro.Chameneos.run_monad ~meetings:2_000));
    Test.make ~name:"concurrent/chameneos-lwt"
      (Staged.stage (fun () -> Retrofit_micro.Chameneos.run_lwt ~meetings:2_000));
  ]

let run_bechamel () =
  let open Bechamel in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:1_000 ~quota:(Time.second 0.25) () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  print_endline "Bechamel micro suite (monotonic clock, ns per run):";
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg [ instance ] test in
      let results =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) raw [] |> List.sort compare
      in
      List.iter
        (fun (name, m) ->
          let result = Analyze.one ols instance m in
          let estimate =
            match Analyze.OLS.estimates result with
            | Some [ est ] -> Printf.sprintf "%12.1f ns/run" est
            | _ -> "(no estimate)"
          in
          Printf.printf "  %-34s %s\n%!" name estimate)
        results)
    (bechamel_tests ())

let () =
  let quick = ref false and listing = ref false and bechamel = ref false in
  let ids = ref [] in
  Arg.parse
    [
      ("--quick", Arg.Set quick, " run at test size");
      ("--list", Arg.Set listing, " list experiment ids");
      ("--bechamel", Arg.Set bechamel, " additionally run the Bechamel micro suite");
    ]
    (fun id -> ids := id :: !ids)
    "main [--quick] [--list] [--bechamel] [ID...]";
  let quick = !quick and ids = List.rev !ids in
  if !listing then
    List.iter
      (fun (e : E.Registry.t) -> Printf.printf "%-11s %s (%s)\n" e.id e.title e.paper_ref)
      E.Registry.all
  else begin
    (match ids with
    | [] -> print_string (E.Registry.run_all ~quick ())
    | ids ->
        List.iter
          (fun id ->
            match E.Registry.find id with
            | Some e ->
                Printf.printf "=== %s: %s (%s) ===\n\n%s\n" e.id e.title e.paper_ref
                  (e.run ~quick ())
            | None ->
                Printf.eprintf "unknown experiment %s; known: %s\n" id
                  (String.concat ", " (E.Registry.ids ()));
                exit 1)
          ids);
    if !bechamel then run_bechamel ()
  end
