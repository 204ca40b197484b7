(* Prints the grounded-tier golden rendering (see ../grounded_golden.ml). *)
let () = print_string (Grounded_golden.render ())
