(* The grounded tier against its golden file (test/golden/grounded.txt,
   rendered by [Grounded_golden] and embedded at build time): every answer,
   skip reason and OBDD node count must match bit for bit. *)

let test_grounded_golden () =
  let expected = String.split_on_char '\n' Golden_data.grounded in
  let actual = String.split_on_char '\n' (Grounded_golden.render ()) in
  Alcotest.(check int) "line count" (List.length expected) (List.length actual);
  List.iter2 (fun e a -> Alcotest.(check string) "golden line" e a) expected actual

let suites =
  [ ("golden", [ Alcotest.test_case "grounded tier answers and OBDD sizes" `Quick test_grounded_golden ]) ]
