(* Golden trace-byte table.

   Every line pins the MD5 of [Pack.encode] of one workload's traces: each
   registry workload's CPU variant at its default thread count and at 512
   threads, and each CUDA variant at 512 threads.  Tracing (the machine)
   and encoding (TFPACK1) must reproduce these bytes exactly, so a change
   to either that moves one bit of any trace fails here.  Regenerate the
   table with

     dune exec test/test_trace_golden.exe -- --print > test/trace_digests.golden

   only when a trace or format change is intended. *)

module Workload = Threadfuser_workloads.Workload
module Registry = Threadfuser_workloads.Registry
module Pack = Threadfuser_trace.Pack

let md5 s = Digest.to_hex (Digest.string s)

let table () =
  let b = Buffer.create 8192 in
  let line variant threads name (tr : Workload.traced) =
    Printf.bprintf b "%s %s t=%s %s\n" name variant threads
      (md5 (Pack.encode tr.Workload.traces))
  in
  List.iter
    (fun (w : Workload.t) ->
      line "cpu" "default" w.Workload.name (Workload.trace_cpu w);
      line "cpu" "512" w.Workload.name (Workload.trace_cpu ~threads:512 w);
      Option.iter
        (line "cuda" "512" w.Workload.name)
        (Workload.trace_cuda ~threads:512 w))
    Registry.all;
  Buffer.contents b

let read_golden () =
  (* dune copies the table beside the test binary *)
  let ic =
    open_in_bin
      (Filename.concat
         (Filename.dirname Sys.executable_name)
         "trace_digests.golden")
  in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_golden () =
  let expect = String.split_on_char '\n' (read_golden ()) in
  let got = String.split_on_char '\n' (table ()) in
  Alcotest.(check int) "table length" (List.length expect) (List.length got);
  List.iter2 (Alcotest.(check string) "digest line") expect got

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--print" then
    print_string (table ())
  else
    Alcotest.run "trace_golden"
      [
        ( "digests",
          [ Alcotest.test_case "trace digest table" `Quick test_golden ] );
      ]
