(* Tests for Dvz_soc: permissions, physical memory and the dynamic
   swappable memory. *)

open Dvz_soc
module Golden = Dvz_isa.Golden
module Trap = Dvz_isa.Trap

let test_perm_constructors () =
  Alcotest.(check bool) "rwx" true Perm.rwx.Perm.exec;
  Alcotest.(check bool) "rw no exec" false Perm.rw.Perm.exec;
  Alcotest.(check bool) "rx no write" false Perm.rx.Perm.write;
  Alcotest.(check bool) "priv_only drops user" false
    (Perm.priv_only Perm.rwx).Perm.user;
  Alcotest.(check bool) "absent" false Perm.absent.Perm.present;
  Alcotest.(check bool) "none unreadable" false Perm.none.Perm.read

let test_mem_rw () =
  let m = Phys_mem.create () in
  Phys_mem.write m ~addr:0x100 ~size:4 0xDEADBEEF;
  Alcotest.(check int) "word read" 0xDEADBEEF (Phys_mem.read m ~addr:0x100 ~size:4);
  Alcotest.(check int) "byte read" 0xEF (Phys_mem.read_byte m 0x100);
  Alcotest.(check int) "little endian" 0xDE (Phys_mem.read_byte m 0x103)

let test_mem_out_of_range () =
  let m = Phys_mem.create () in
  Alcotest.(check int) "oob read is 0" 0 (Phys_mem.read_byte m 0x1000000);
  Phys_mem.write_byte m 0x1000000 42 (* silently ignored *)

let test_mem_write_words () =
  let m = Phys_mem.create () in
  Phys_mem.write_words m 0x200 [| 0x11223344; 0x55667788 |];
  Alcotest.(check int) "word0" 0x11223344 (Phys_mem.read m ~addr:0x200 ~size:4);
  Alcotest.(check int) "word1" 0x55667788 (Phys_mem.read m ~addr:0x204 ~size:4)

let test_checked_access_fault () =
  let m = Phys_mem.create () in
  Phys_mem.set_perm m 0x3000 Perm.none;
  (match Phys_mem.checked_load m ~priv:Golden.Machine ~addr:0x3000 ~size:8 with
  | Error Trap.Load_access_fault -> ()
  | _ -> Alcotest.fail "expected load access fault");
  match
    Phys_mem.checked_store m ~priv:Golden.Machine ~addr:0x3000 ~size:8 ~value:1
  with
  | Error Trap.Store_access_fault -> ()
  | _ -> Alcotest.fail "expected store access fault"

let test_checked_page_fault () =
  let m = Phys_mem.create () in
  Phys_mem.set_perm m 0x4000 Perm.absent;
  (match Phys_mem.checked_load m ~priv:Golden.Machine ~addr:0x4000 ~size:8 with
  | Error Trap.Load_page_fault -> ()
  | _ -> Alcotest.fail "expected load page fault");
  match
    Phys_mem.checked_store m ~priv:Golden.Machine ~addr:0x4008 ~size:8 ~value:1
  with
  | Error Trap.Store_page_fault -> ()
  | _ -> Alcotest.fail "expected store page fault"

let test_checked_privilege () =
  let m = Phys_mem.create () in
  Phys_mem.set_perm m 0x5000 (Perm.priv_only Perm.rw);
  (match Phys_mem.checked_load m ~priv:Golden.User ~addr:0x5000 ~size:8 with
  | Error Trap.Load_access_fault -> ()
  | _ -> Alcotest.fail "user load should fault");
  match Phys_mem.checked_load m ~priv:Golden.Machine ~addr:0x5000 ~size:8 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "machine load should succeed"

let test_checked_fetch_exec () =
  let m = Phys_mem.create () in
  Phys_mem.set_perm m 0x6000 Perm.rw;
  (match Phys_mem.checked_fetch m ~priv:Golden.Machine ~addr:0x6000 with
  | Error Trap.Fetch_access_fault -> ()
  | _ -> Alcotest.fail "fetch from non-exec page should fault");
  match Phys_mem.checked_fetch m ~priv:Golden.Machine ~addr:0x1000 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "fetch from rwx page should succeed"

let test_checked_oob () =
  let m = Phys_mem.create () in
  match
    Phys_mem.checked_load m ~priv:Golden.Machine ~addr:(Layout.mem_size + 8)
      ~size:8
  with
  | Error Trap.Load_access_fault -> ()
  | _ -> Alcotest.fail "out-of-range load should access-fault"

let test_mem_copy_isolated () =
  let a = Phys_mem.create () in
  Phys_mem.write_byte a 0x10 1;
  let b = Phys_mem.copy a in
  Phys_mem.write_byte b 0x10 2;
  Alcotest.(check int) "original" 1 (Phys_mem.read_byte a 0x10);
  Alcotest.(check int) "copy" 2 (Phys_mem.read_byte b 0x10)

(* Every writer, at addresses biased to page boundaries and to both ends
   of memory, so that ranges straddle pages or run off memory. *)
type mem_op =
  | Write of int * int * int
  | Write_byte of int * int
  | Write_words of int * int array
  | Blit_bytes of int * string * int
  | Checked_store of Golden.priv * int * int * int
  | Set_perm of int * Perm.t

let show_mem_op = function
  | Write (a, n, v) -> Printf.sprintf "write 0x%x %d 0x%x" a n v
  | Write_byte (a, v) -> Printf.sprintf "write_byte 0x%x 0x%x" a v
  | Write_words (a, ws) ->
      Printf.sprintf "write_words 0x%x [%s]" a
        (String.concat ";" (Array.to_list (Array.map string_of_int ws)))
  | Blit_bytes (a, s, off) ->
      Printf.sprintf "blit_bytes 0x%x %S off %d" a s off
  | Checked_store (priv, a, n, v) ->
      Printf.sprintf "checked_store %s 0x%x %d 0x%x"
        (if priv = Golden.User then "U" else "M") a n v
  | Set_perm (page, p) ->
      Printf.sprintf "set_perm %d present=%b user=%b write=%b" page
        p.Perm.present p.Perm.user p.Perm.write

let apply_mem_op m = function
  | Write (addr, size, v) -> Phys_mem.write m ~addr ~size v
  | Write_byte (addr, v) -> Phys_mem.write_byte m addr v
  | Write_words (addr, ws) -> Phys_mem.write_words m addr ws
  | Blit_bytes (addr, s, off) -> (
      try
        Phys_mem.blit_bytes m ~addr (Bytes.of_string s) ~off
          ~len:(String.length s - off)
      with Invalid_argument _ -> ())
  | Checked_store (priv, addr, size, value) ->
      ignore (Phys_mem.checked_store m ~priv ~addr ~size ~value)
  | Set_perm (page, p) -> Phys_mem.set_perm m (page * Layout.page_size) p

let gen_mem_op =
  let open QCheck.Gen in
  let pages = Layout.mem_size / Layout.page_size in
  let addr =
    frequency
      [ (3, map2 (fun p d -> (p * Layout.page_size) + d)
              (int_range 0 pages) (int_range (-9) 9));
        (1, int_range (-16) (Layout.mem_size + 16)) ]
  in
  frequency
    [ (4, map3 (fun a n v -> Write (a, n, v)) addr (int_range 0 8) int);
      (1, map2 (fun a v -> Write_byte (a, v)) addr int);
      (1, map2 (fun a ws -> Write_words (a, ws)) addr
            (array_size (int_range 0 6) int));
      (1, addr >>= fun a ->
          string_size (int_range 0 40) >>= fun s ->
          map (fun off -> Blit_bytes (a, s, off))
            (int_range 0 (String.length s)));
      (1, map3
            (fun priv (a, n) v -> Checked_store (priv, a, n, v))
            (oneofl [ Golden.User; Golden.Machine ])
            (pair addr (oneofl [ 1; 2; 4; 8 ])) int);
      (1, map2 (fun page p -> Set_perm (page, p)) (int_range 0 (pages - 1))
            (oneofl [ Perm.rwx; Perm.rw; Perm.rx; Perm.none; Perm.absent;
                      Perm.priv_only Perm.rw ])) ]

let same_bytes a b =
  let rec go i =
    i = Layout.mem_size
    || (Phys_mem.read_byte a i = Phys_mem.read_byte b i && go (i + 1))
  in
  go 0

(* [blit] copies only the pages dirty on either side, so a writer that
   forgets to mark a page it wrote shows up as a byte [blit] left behind. *)
let prop_blit_copies_every_write =
  let ops = QCheck.Gen.(list_size (int_range 0 30) gen_mem_op) in
  QCheck.Test.make ~name:"blit copies every write"
    ~count:200
    (QCheck.make
       ~print:(fun (xs, ys) ->
         let show l = String.concat "\n  " (List.map show_mem_op l) in
         Printf.sprintf "src:\n  %s\ndst:\n  %s" (show xs) (show ys))
       (QCheck.Gen.pair ops ops))
    (fun (ops_src, ops_dst) ->
      let src = Phys_mem.create () and dst = Phys_mem.create () in
      List.iter (apply_mem_op src) ops_src;
      List.iter (apply_mem_op dst) ops_dst;
      let zero = Phys_mem.create () and copy = Phys_mem.copy src in
      same_bytes copy src
      && (Phys_mem.blit ~src ~dst; same_bytes dst src)
      && (Phys_mem.blit ~src:zero ~dst; same_bytes dst zero)
      && (Phys_mem.blit ~src:zero ~dst:src; same_bytes src zero)
      && (Phys_mem.blit ~src:copy ~dst; same_bytes dst copy))

(* --- swapmem ------------------------------------------------------------- *)

let blob name words is_transient =
  { Swapmem.name; words = Array.of_list words; is_transient }

let test_swap_schedule_order () =
  let sm =
    Swapmem.create
      ~blobs:[ blob "a" [ 1 ] false; blob "b" [ 2 ] false; blob "t" [ 3 ] true ]
      ~schedule:[ 1; 0; 2 ]
  in
  let mem = Phys_mem.create () in
  let names = ref [] in
  let rec drain () =
    match Swapmem.load_next sm mem with
    | None -> ()
    | Some b ->
        names := b.Swapmem.name :: !names;
        drain ()
  in
  drain ();
  Alcotest.(check (list string)) "schedule order" [ "b"; "a"; "t" ]
    (List.rev !names)

let test_swap_loads_words () =
  let sm = Swapmem.create ~blobs:[ blob "x" [ 0xAB; 0xCD ] false ] ~schedule:[ 0 ] in
  let mem = Phys_mem.create () in
  ignore (Swapmem.load_next sm mem);
  Alcotest.(check int) "word 0" 0xAB
    (Phys_mem.read mem ~addr:Layout.swap_base ~size:4);
  Alcotest.(check int) "word 1" 0xCD
    (Phys_mem.read mem ~addr:(Layout.swap_base + 4) ~size:4)

let test_swap_pads_with_ebreak () =
  let sm = Swapmem.create ~blobs:[ blob "x" [ 0xAB ] false ] ~schedule:[ 0 ] in
  let mem = Phys_mem.create () in
  ignore (Swapmem.load_next sm mem);
  let ebreak = Dvz_isa.Encode.encode Dvz_isa.Insn.Ebreak in
  Alcotest.(check int) "padding word" ebreak
    (Phys_mem.read mem ~addr:(Layout.swap_base + 8) ~size:4);
  Alcotest.(check int) "last region word" ebreak
    (Phys_mem.read mem ~addr:(Layout.swap_base + Layout.swap_size - 4) ~size:4)

let test_swap_overwrites_previous () =
  let sm =
    Swapmem.create
      ~blobs:[ blob "a" [ 0x11; 0x22 ] false; blob "b" [ 0x33 ] false ]
      ~schedule:[ 0; 1 ]
  in
  let mem = Phys_mem.create () in
  ignore (Swapmem.load_next sm mem);
  ignore (Swapmem.load_next sm mem);
  Alcotest.(check int) "first word replaced" 0x33
    (Phys_mem.read mem ~addr:Layout.swap_base ~size:4);
  let ebreak = Dvz_isa.Encode.encode Dvz_isa.Insn.Ebreak in
  Alcotest.(check int) "stale second word cleared" ebreak
    (Phys_mem.read mem ~addr:(Layout.swap_base + 4) ~size:4)

let test_swap_reset () =
  let sm = Swapmem.create ~blobs:[ blob "a" [ 1 ] false ] ~schedule:[ 0 ] in
  let mem = Phys_mem.create () in
  ignore (Swapmem.load_next sm mem);
  Alcotest.(check int) "exhausted" 0 (Swapmem.remaining sm);
  Swapmem.reset sm;
  Alcotest.(check int) "rewound" 1 (Swapmem.remaining sm)

let test_swap_current () =
  let sm =
    Swapmem.create ~blobs:[ blob "a" [ 1 ] false; blob "b" [ 2 ] true ]
      ~schedule:[ 0; 1 ]
  in
  let mem = Phys_mem.create () in
  Alcotest.(check bool) "no current before load" true (Swapmem.current sm = None);
  ignore (Swapmem.load_next sm mem);
  (match Swapmem.current sm with
  | Some b -> Alcotest.(check string) "current name" "a" b.Swapmem.name
  | None -> Alcotest.fail "expected current blob");
  ignore (Swapmem.load_next sm mem);
  match Swapmem.current sm with
  | Some b -> Alcotest.(check bool) "transient flag" true b.Swapmem.is_transient
  | None -> Alcotest.fail "expected current blob"

let test_swap_bad_schedule () =
  Alcotest.check_raises "index range"
    (Invalid_argument "Swapmem.create: schedule index out of range") (fun () ->
      ignore (Swapmem.create ~blobs:[ blob "a" [ 1 ] false ] ~schedule:[ 1 ]))

let test_swap_oversized_blob () =
  let words = List.init ((Layout.swap_size / 4) + 1) (fun i -> i) in
  Alcotest.check_raises "too large"
    (Invalid_argument "Swapmem.create: blob too large: big") (fun () ->
      ignore (Swapmem.create ~blobs:[ blob "big" words false ] ~schedule:[ 0 ]))

let test_with_schedule_preserves_blobs () =
  let sm =
    Swapmem.create ~blobs:[ blob "a" [ 1 ] false; blob "b" [ 2 ] false ]
      ~schedule:[ 0; 1 ]
  in
  let sm2 = Swapmem.with_schedule sm [ 1 ] in
  Alcotest.(check int) "blob count preserved" 2 (List.length (Swapmem.blobs sm2));
  Alcotest.(check (list int)) "new schedule" [ 1 ] (Swapmem.schedule sm2);
  Alcotest.(check (list int)) "original untouched" [ 0; 1 ] (Swapmem.schedule sm)

let prop_schedule_multiset =
  QCheck.Test.make ~name:"loaded blobs follow the schedule exactly" ~count:100
    QCheck.(list_of_size (Gen.int_range 0 10) (int_bound 2))
    (fun schedule ->
      let blobs = [ blob "a" [ 1 ] false; blob "b" [ 2 ] false; blob "c" [ 3 ] true ] in
      let sm = Swapmem.create ~blobs ~schedule in
      let mem = Phys_mem.create () in
      let rec drain acc =
        match Swapmem.load_next sm mem with
        | None -> List.rev acc
        | Some b -> drain (b.Swapmem.name :: acc)
      in
      let names = drain [] in
      let expected =
        List.map (fun i -> (List.nth blobs i).Swapmem.name) schedule
      in
      names = expected)

let () =
  Alcotest.run "dvz_soc"
    [ ( "perm",
        [ Alcotest.test_case "constructors" `Quick test_perm_constructors ] );
      ( "phys_mem",
        [ Alcotest.test_case "read/write" `Quick test_mem_rw;
          Alcotest.test_case "out of range" `Quick test_mem_out_of_range;
          Alcotest.test_case "write_words" `Quick test_mem_write_words;
          Alcotest.test_case "access fault" `Quick test_checked_access_fault;
          Alcotest.test_case "page fault" `Quick test_checked_page_fault;
          Alcotest.test_case "privilege" `Quick test_checked_privilege;
          Alcotest.test_case "fetch exec bit" `Quick test_checked_fetch_exec;
          Alcotest.test_case "out-of-range checked" `Quick test_checked_oob;
          Alcotest.test_case "copy isolation" `Quick test_mem_copy_isolated;
          QCheck_alcotest.to_alcotest prop_blit_copies_every_write ] );
      ( "swapmem",
        [ Alcotest.test_case "schedule order" `Quick test_swap_schedule_order;
          Alcotest.test_case "loads words" `Quick test_swap_loads_words;
          Alcotest.test_case "ebreak padding" `Quick test_swap_pads_with_ebreak;
          Alcotest.test_case "overwrite previous" `Quick
            test_swap_overwrites_previous;
          Alcotest.test_case "reset" `Quick test_swap_reset;
          Alcotest.test_case "current" `Quick test_swap_current;
          Alcotest.test_case "bad schedule" `Quick test_swap_bad_schedule;
          Alcotest.test_case "oversized blob" `Quick test_swap_oversized_blob;
          Alcotest.test_case "with_schedule" `Quick
            test_with_schedule_preserves_blobs;
          QCheck_alcotest.to_alcotest prop_schedule_multiset ] ) ]
