(* Prints refs.ml: the exact counts and simulated outcomes the
   benchmark checks its jobs against.  Run once on a known-good commit
   and commit the output:

     dune exec perfbench/record_refs.exe > perfbench/refs.ml *)

module F = Retrofit_fiber
module Counter = Retrofit_util.Counter

let () =
  print_string "(* Recorded by record_refs.exe; do not edit. *)\n\n";
  print_string "let interp : (string * (int * int)) list =\n  [\n";
  List.iter
    (fun effects ->
      List.iter
        (fun ((f : Interp.family), arg, cname, config) ->
          let compiled = F.Compile.compile (f.program arg) in
          let t0 = Spans.now_ns () in
          let _, c = F.Machine.run ~cfuns:F.Programs.standard_cfuns config compiled in
          let dt = Spans.now_ns () - t0 in
          Printf.eprintf "%-32s %8.2f ms %9d ops\n%!" (Interp.label f.fam arg cname)
            (float_of_int dt /. 1e6) (Counter.get c "ops");
          Printf.printf "    (%S, (%d, %d));\n" (Interp.label f.fam arg cname)
            (Counter.get c "ops") (Counter.get c "instructions"))
        (Interp.all_labels ~effects))
    [ false; true ];
  print_string "  ]\n\nlet websim : (string * string) list =\n  [\n";
  List.iter
    (fun md ->
      List.iter
        (fun cell ->
          List.iter
            (fun s ->
              let t0 = Spans.now_ns () in
              let r = Websim.run_cell md cell s in
              Printf.eprintf "%-32s %8.2f ms %6d requests\n%!" (Websim.ref_key md cell s)
                (float_of_int (Spans.now_ns () - t0) /. 1e6) r.Websim.requests;
              Printf.printf "    (%S,\n     %S);\n" (Websim.ref_key md cell s) r.Websim.line)
            Websim.sim_seeds)
        Websim.cells)
    Websim.models;
  print_string "  ]\n"
