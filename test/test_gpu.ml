(* Tests for the GPU hardware model: register map, SKU catalog, physical
   memory, MMU page tables, shader binaries, job descriptors, compute
   kernels and the device state machine. *)

module Regs = Grt_gpu.Regs
module Sku = Grt_gpu.Sku
module Mem = Grt_gpu.Mem
module Mmu = Grt_gpu.Mmu
module Shader = Grt_gpu.Shader
module Job_desc = Grt_gpu.Job_desc
module Kernels = Grt_gpu.Kernels
module Device = Grt_gpu.Device
module Clock = Grt_sim.Clock

let check = Alcotest.check
let qtest ?(count = 100) ?print name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ?print gen prop)

(* ---- Regs ---- *)

let regs_names () =
  check Alcotest.string "gpu_id" "GPU_ID" (Regs.name Regs.gpu_id);
  check Alcotest.string "slot reg" "JS0+0x20" (Regs.name (Regs.js_command 0));
  check Alcotest.string "as reg" "AS1+0x18" (Regs.name (Regs.as_command 1));
  check Alcotest.string "js features" "JS5_FEATURES" (Regs.name (Regs.js_features 5))

let regs_disjoint_blocks () =
  (* No register offset may be shared between blocks. *)
  let all =
    [
      Regs.gpu_id; Regs.gpu_command; Regs.latest_flush_id; Regs.shader_present_lo;
      Regs.shader_config; Regs.job_irq_rawstat; Regs.js_command 0; Regs.js_command 1;
      Regs.mmu_irq_rawstat; Regs.as_command 0; Regs.as_command 7; Regs.prfcnt_config;
      Regs.js_features 0; Regs.js_features 15; Regs.texture_features 3;
    ]
  in
  let sorted = List.sort_uniq compare all in
  check Alcotest.int "all distinct" (List.length all) (List.length sorted)

let regs_nondet () =
  check Alcotest.bool "flush id is nondet" true (Regs.is_nondeterministic Regs.latest_flush_id);
  check Alcotest.bool "gpu id is det" false (Regs.is_nondeterministic Regs.gpu_id)

let regs_bounds () =
  Alcotest.check_raises "slot bound" (Invalid_argument "Regs.js_base") (fun () ->
      ignore (Regs.js_command 3));
  Alcotest.check_raises "as bound" (Invalid_argument "Regs.as_base") (fun () ->
      ignore (Regs.as_command 8))

(* ---- Sku ---- *)

let sku_catalog () =
  check Alcotest.int "five SKUs" 5 (List.length Sku.all);
  check Alcotest.bool "find works" true (Sku.find "Mali-G71 MP8" = Some Sku.g71_mp8);
  check Alcotest.bool "find_by_id works" true
    (Sku.find_by_id Sku.g71_mp8.Sku.gpu_id = Some Sku.g71_mp8);
  check Alcotest.bool "unknown id" true (Sku.find_by_id 0xDEADL = None)

let sku_masks () =
  check Alcotest.int64 "g71 has 8 cores" 0xFFL (Sku.shader_present_mask Sku.g71_mp8);
  check Alcotest.int64 "g31 has 2 cores" 0x3L (Sku.shader_present_mask Sku.g31_mp2);
  check Alcotest.int64 "g71 l2" 0x3L (Sku.l2_present_mask Sku.g71_mp8)

let sku_ids_unique () =
  let ids = List.map (fun s -> s.Sku.gpu_id) Sku.all in
  check Alcotest.int "unique ids" (List.length ids) (List.length (List.sort_uniq compare ids))

let sku_throughput_ordering () =
  check Alcotest.bool "G76 > G71" true (Sku.flops_per_s Sku.g76_mp12 > Sku.flops_per_s Sku.g71_mp8);
  check Alcotest.bool "G31 < G71" true (Sku.flops_per_s Sku.g31_mp2 < Sku.flops_per_s Sku.g71_mp8)

(* ---- Mem ---- *)

let mem_rw () =
  let m = Mem.create () in
  let pa = Mem.alloc_pages m 2 in
  Mem.write_u32 m pa 0xDEADBEEFL;
  Mem.write_u64 m (Int64.add pa 8L) 0x1122334455667788L;
  Mem.write_f32 m (Int64.add pa 16L) 3.25;
  check Alcotest.int64 "u32" 0xDEADBEEFL (Mem.read_u32 m pa);
  check Alcotest.int64 "u64" 0x1122334455667788L (Mem.read_u64 m (Int64.add pa 8L));
  check (Alcotest.float 1e-9) "f32" 3.25 (Mem.read_f32 m (Int64.add pa 16L))

let mem_unmapped_reads_zero () =
  let m = Mem.create () in
  check Alcotest.int64 "zero" 0L (Mem.read_u64 m 0x7777_0000L)

let mem_page_boundary_straddle () =
  let m = Mem.create () in
  let pa = Mem.alloc_pages m 2 in
  let addr = Int64.add pa (Int64.of_int (Mem.page_size - 2)) in
  Mem.write_u32 m addr 0xCAFEBABEL;
  check Alcotest.int64 "straddling u32" 0xCAFEBABEL (Mem.read_u32 m addr)

let mem_alloc_distinct () =
  let m = Mem.create () in
  let a = Mem.alloc_pages m 3 in
  let b = Mem.alloc_pages m 1 in
  check Alcotest.bool "non-overlapping" true
    (Int64.compare b (Int64.add a (Int64.of_int (3 * Mem.page_size))) >= 0)

let mem_dirty_tracking () =
  let m = Mem.create () in
  let pa = Mem.alloc_pages m 4 in
  Mem.write_u8 m pa 1;
  Mem.write_u8 m (Int64.add pa (Int64.of_int Mem.page_size)) 1;
  check Alcotest.int "two dirty pages" 2 (List.length (Mem.dirty_pages m));
  check Alcotest.int "dirty bytes" (2 * Mem.page_size) (Mem.dirty_bytes m);
  Mem.clear_dirty m;
  check Alcotest.int "cleared" 0 (List.length (Mem.dirty_pages m));
  ignore (Mem.read_u8 m pa);
  check Alcotest.int "reads do not dirty" 0 (List.length (Mem.dirty_pages m))

let mem_get_set_page () =
  let m = Mem.create () in
  let page = Bytes.make Mem.page_size 'x' in
  Mem.set_page m 0x40L page;
  check Alcotest.bytes "roundtrip" page (Mem.get_page m 0x40L);
  check Alcotest.bytes "missing page is zeroes" (Bytes.make Mem.page_size '\000')
    (Mem.get_page m 0x9999L);
  Alcotest.check_raises "size checked" (Invalid_argument "Mem.set_page: wrong size") (fun () ->
      Mem.set_page m 0x41L (Bytes.create 7))

let mem_qcheck_rw =
  qtest "u32 write/read roundtrips at arbitrary offsets"
    QCheck2.Gen.(pair (int_bound 8000) (map Int64.of_int (int_bound 0xFFFF)))
    (fun (off, v) ->
      let m = Mem.create () in
      let pa = Mem.alloc_pages m 3 in
      let addr = Int64.add pa (Int64.of_int off) in
      Mem.write_u32 m addr v;
      Int64.equal (Mem.read_u32 m addr) v)

(* ---- Mmu ---- *)

let mmu_map_translate () =
  let m = Mem.create () in
  let mmu = Mmu.create m ~fmt:Sku.Lpae_v7 in
  let pa = Mem.alloc_pages m 1 in
  Mmu.map_page mmu ~va:0x10_0000L ~pa ~flags:Mmu.rw_data;
  (match Mmu.translate mmu ~va:0x10_0123L ~access:`Read with
  | Ok got -> check Alcotest.int64 "offset preserved" (Int64.add pa 0x123L) got
  | Error _ -> Alcotest.fail "translate failed");
  match Mmu.translate mmu ~va:0x20_0000L ~access:`Read with
  | Error Mmu.Unmapped -> ()
  | _ -> Alcotest.fail "expected unmapped"

let mmu_permissions () =
  let m = Mem.create () in
  let mmu = Mmu.create m ~fmt:Sku.Lpae_v7 in
  let pa = Mem.alloc_pages m 2 in
  Mmu.map_page mmu ~va:0x1000L ~pa ~flags:Mmu.ro_data;
  Mmu.map_page mmu ~va:0x2000L ~pa:(Int64.add pa 0x1000L) ~flags:Mmu.rx_code;
  (match Mmu.translate mmu ~va:0x1000L ~access:`Write with
  | Error (Mmu.Permission _) -> ()
  | _ -> Alcotest.fail "ro page writable");
  (match Mmu.translate mmu ~va:0x1000L ~access:`Exec with
  | Error (Mmu.Permission _) -> ()
  | _ -> Alcotest.fail "data page executable");
  match Mmu.translate mmu ~va:0x2000L ~access:`Exec with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "code page must be executable"

let mmu_unmap () =
  let m = Mem.create () in
  let mmu = Mmu.create m ~fmt:Sku.Lpae_v7 in
  let pa = Mem.alloc_pages m 1 in
  Mmu.map_page mmu ~va:0x4000L ~pa ~flags:Mmu.rw_data;
  Mmu.unmap_page mmu ~va:0x4000L;
  match Mmu.translate mmu ~va:0x4000L ~access:`Read with
  | Error Mmu.Unmapped -> ()
  | _ -> Alcotest.fail "expected unmapped after unmap"

let mmu_block_mapping () =
  let m = Mem.create () in
  let mmu = Mmu.create m ~fmt:Sku.Lpae_v7 in
  let block = Int64.of_int (1 lsl 21) in
  Mmu.map_block mmu ~va:block ~pa:(Int64.mul 4L block) ~flags:Mmu.rw_data;
  (match Mmu.translate mmu ~va:(Int64.add block 0x12345L) ~access:`Read with
  | Ok pa -> check Alcotest.int64 "block offset" (Int64.add (Int64.mul 4L block) 0x12345L) pa
  | Error _ -> Alcotest.fail "block translate failed");
  Alcotest.check_raises "misaligned block" (Invalid_argument "Mmu: misaligned va") (fun () ->
      Mmu.map_block mmu ~va:0x1000L ~pa:0L ~flags:Mmu.rw_data)

let mmu_v8_access_flag () =
  let m = Mem.create () in
  (* Build a v7-format table but walk it as v8: entries lack the access
     flag, so a v8 walker must fault. This is one of the SKU differences
     that break cross-SKU replay (§2.4). *)
  let v7 = Mmu.create m ~fmt:Sku.Lpae_v7 in
  let pa = Mem.alloc_pages m 1 in
  Mmu.map_page v7 ~va:0x8000L ~pa ~flags:Mmu.rw_data;
  let as_v8 = Mmu.of_root m ~fmt:Sku.Lpae_v8 ~root:(Mmu.root_pa v7) in
  match Mmu.translate as_v8 ~va:0x8000L ~access:`Read with
  | Error (Mmu.Permission _) -> ()
  | _ -> Alcotest.fail "v8 walker must require the access flag"

let mmu_table_pages () =
  let m = Mem.create () in
  let mmu = Mmu.create m ~fmt:Sku.Lpae_v7 in
  let root_only = Mmu.table_pages mmu in
  check Alcotest.int "root only" 1 (List.length root_only);
  let pa = Mem.alloc_pages m 1 in
  Mmu.map_page mmu ~va:0x10_0000L ~pa ~flags:Mmu.rw_data;
  (* root + one L2 + one L3 *)
  check Alcotest.int "three levels" 3 (List.length (Mmu.table_pages mmu))

let mmu_mapped_spans_coalesce () =
  let m = Mem.create () in
  let mmu = Mmu.create m ~fmt:Sku.Lpae_v7 in
  let pa = Mem.alloc_pages m 4 in
  for i = 0 to 3 do
    let off = Int64.of_int (i * Mem.page_size) in
    Mmu.map_page mmu ~va:(Int64.add 0x30_0000L off) ~pa:(Int64.add pa off) ~flags:Mmu.rw_data
  done;
  match Mmu.mapped_spans mmu with
  | [ (va, len, flags) ] ->
    check Alcotest.int64 "span start" 0x30_0000L va;
    check Alcotest.int "span length" (4 * Mem.page_size) len;
    check Alcotest.bool "span flags" true (flags = Mmu.rw_data)
  | spans -> Alcotest.failf "expected one coalesced span, got %d" (List.length spans)

let mmu_qcheck_translate =
  qtest "mapped pages translate with page-offset identity"
    QCheck2.Gen.(pair (int_range 1 200) (int_bound 4095))
    (fun (page_idx, off) ->
      let m = Mem.create () in
      let mmu = Mmu.create m ~fmt:Sku.Lpae_v8 in
      let pa = Mem.alloc_pages m 1 in
      let va = Int64.of_int (page_idx * Mem.page_size) in
      Mmu.map_page mmu ~va ~pa ~flags:Mmu.rw_data;
      match Mmu.translate mmu ~va:(Int64.add va (Int64.of_int off)) ~access:`Write with
      | Ok got -> Int64.equal got (Int64.add pa (Int64.of_int off))
      | Error _ -> false)

(* ---- Shader ---- *)

let shader_compile_parse () =
  let bin = Shader.compile ~sku:Sku.g71_mp8 ~op:Shader.Conv2d in
  match Shader.parse_header bin with
  | Ok h ->
    check Alcotest.int64 "bound to sku" Sku.g71_mp8.Sku.gpu_id h.Shader.gpu_id;
    check Alcotest.bool "op preserved" true (h.Shader.op = Shader.Conv2d);
    check Alcotest.int "tile from cores" (Shader.tile_size Sku.g71_mp8) h.Shader.tile
  | Error e -> Alcotest.fail e

let shader_deterministic () =
  let a = Shader.compile ~sku:Sku.g52_mp4 ~op:Shader.Fc in
  let b = Shader.compile ~sku:Sku.g52_mp4 ~op:Shader.Fc in
  check Alcotest.bytes "same bits" a b

let shader_sku_specific () =
  let a = Shader.compile ~sku:Sku.g71_mp8 ~op:Shader.Fc in
  let b = Shader.compile ~sku:Sku.g76_mp12 ~op:Shader.Fc in
  check Alcotest.bool "different binaries per SKU" false (Bytes.equal a b)

let shader_op_codes_roundtrip () =
  List.iter
    (fun op ->
      match Shader.op_of_code (Shader.op_code op) with
      | Some op' when op = op' -> ()
      | _ -> Alcotest.failf "op %s does not roundtrip" (Shader.op_name op))
    [
      Shader.Copy; Shader.Relu; Shader.Add; Shader.Concat2; Shader.Softmax; Shader.Maxpool;
      Shader.Avgpool; Shader.Conv2d; Shader.Depthwise; Shader.Fc;
    ]

let shader_rejects_garbage () =
  (match Shader.parse_header (Bytes.create 4) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "short header accepted");
  match Shader.parse_header (Bytes.make 64 'z') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad magic accepted"

(* ---- Job_desc ---- *)

let job_desc_roundtrip () =
  let m = Mem.create () in
  let pa = Mem.alloc_pages m 1 in
  let d =
    {
      Job_desc.op = Shader.Conv2d;
      shader_va = 0x1234_5678L;
      input_va = 0x1000L;
      input2_va = 0x2000L;
      bias_va = 0x3000L;
      output_va = 0x4000L;
      params =
        {
          Job_desc.default_params with
          Job_desc.in_c = 3;
          in_h = 8;
          in_w = 8;
          out_c = 4;
          out_h = 6;
          out_w = 6;
          kh = 3;
          kw = 3;
          relu = true;
          part_idx = 1;
          part_count = 2;
          flops_hint = 123_456_789L;
        };
      next_va = 0x9000L;
    }
  in
  Job_desc.write m ~pa d;
  match Job_desc.read m ~pa with
  | Ok d' ->
    check Alcotest.bool "roundtrip" true (d = d');
    check Alcotest.bool "fresh status pending" true (Job_desc.read_status m ~pa = Job_desc.Pending)
  | Error e -> Alcotest.fail e

let job_desc_status () =
  let m = Mem.create () in
  let pa = Mem.alloc_pages m 1 in
  Job_desc.write_status m ~pa (Job_desc.Fault 2);
  (match Job_desc.read_status m ~pa with
  | Job_desc.Fault 2 -> ()
  | _ -> Alcotest.fail "fault status lost");
  Job_desc.write_status m ~pa Job_desc.Done;
  check Alcotest.bool "done" true (Job_desc.read_status m ~pa = Job_desc.Done)

let job_desc_bad_magic () =
  let m = Mem.create () in
  let pa = Mem.alloc_pages m 1 in
  match Job_desc.read m ~pa with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "zero page accepted as descriptor"

(* ---- Kernels ---- *)

(* A float-array view over a Kernels.Flat store: [exec] loads the array
   (rounded to f32, as GPU memory stores it), runs the job, and reads the
   whole space back so tests keep asserting on plain array cells. *)
let flat_ctx n =
  let arr = Array.make n 0.0 in
  let exec d =
    let flat = Kernels.Flat.create () in
    Array.iteri (fun i v -> Kernels.Flat.write_f32 flat (Int64.of_int (4 * i)) v) arr;
    Kernels.execute (Kernels.Flat.ctx flat) d;
    for i = 0 to n - 1 do
      arr.(i) <- Kernels.Flat.read_f32 flat (Int64.of_int (4 * i))
    done
  in
  (arr, exec)

(* A hand-checked 1-channel 3x3 conv with a 2x2 kernel, stride 1, no pad. *)
let kernels_conv_hand () =
  let arr, exec = flat_ctx 64 in
  (* input at 0: [[1;2;3];[4;5;6];[7;8;9]]  weights at 16: [[1;0];[0;1]] *)
  List.iteri (fun i v -> arr.(i) <- v) [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9. ];
  arr.(16) <- 1.0;
  arr.(19) <- 1.0;
  let d =
    {
      Job_desc.op = Shader.Conv2d;
      shader_va = 0L;
      input_va = 0L;
      input2_va = 64L;
      bias_va = 0L;
      output_va = 128L;
      params =
        {
          Job_desc.default_params with
          Job_desc.in_c = 1;
          in_h = 3;
          in_w = 3;
          out_c = 1;
          out_h = 2;
          out_w = 2;
          kh = 2;
          kw = 2;
        };
      next_va = 0L;
    }
  in
  exec d;
  (* out[y][x] = in[y][x] + in[y+1][x+1] *)
  check (Alcotest.float 1e-6) "o00" 6.0 arr.(32);
  check (Alcotest.float 1e-6) "o01" 8.0 arr.(33);
  check (Alcotest.float 1e-6) "o10" 12.0 arr.(34);
  check (Alcotest.float 1e-6) "o11" 14.0 arr.(35)

let kernels_relu_and_bias () =
  let arr, exec = flat_ctx 64 in
  arr.(0) <- -5.0;
  arr.(1) <- 2.0;
  (* fc: 2 inputs -> 1 output, weights [1;1], bias -1, relu *)
  arr.(8) <- 1.0;
  arr.(9) <- 1.0;
  arr.(16) <- -1.0;
  let d =
    {
      Job_desc.op = Shader.Fc;
      shader_va = 0L;
      input_va = 0L;
      input2_va = 32L;
      bias_va = 64L;
      output_va = 128L;
      params =
        {
          Job_desc.default_params with
          Job_desc.in_c = 2;
          in_h = 1;
          in_w = 1;
          out_c = 1;
          out_h = 1;
          out_w = 1;
          relu = true;
        };
      next_va = 0L;
    }
  in
  exec d;
  (* -5 + 2 - 1 = -4, relu -> 0 *)
  check (Alcotest.float 1e-6) "relu clamps" 0.0 arr.(32)

let kernels_maxpool_hand () =
  let arr, exec = flat_ctx 64 in
  List.iteri (fun i v -> arr.(i) <- v) [ 1.; 9.; 2.; 8.; 3.; 7.; 4.; 6.; 5. ];
  let d =
    {
      Job_desc.op = Shader.Maxpool;
      shader_va = 0L;
      input_va = 0L;
      input2_va = 0L;
      bias_va = 0L;
      output_va = 128L;
      params =
        {
          Job_desc.default_params with
          Job_desc.in_c = 1;
          in_h = 3;
          in_w = 3;
          out_c = 1;
          out_h = 2;
          out_w = 2;
          kh = 2;
          kw = 2;
        };
      next_va = 0L;
    }
  in
  exec d;
  check (Alcotest.float 1e-6) "max window" 9.0 arr.(32);
  check (Alcotest.float 1e-6) "max window 2" 9.0 arr.(33)

let kernels_softmax_normalizes () =
  let arr, exec = flat_ctx 64 in
  List.iteri (fun i v -> arr.(i) <- v) [ 1.0; 2.0; 3.0; 4.0 ];
  let d =
    {
      Job_desc.op = Shader.Softmax;
      shader_va = 0L;
      input_va = 0L;
      input2_va = 0L;
      bias_va = 0L;
      output_va = 64L;
      params =
        { Job_desc.default_params with Job_desc.in_c = 4; in_h = 1; in_w = 1; out_c = 4; out_h = 1; out_w = 1 };
      next_va = 0L;
    }
  in
  exec d;
  let sum = arr.(16) +. arr.(17) +. arr.(18) +. arr.(19) in
  check (Alcotest.float 1e-6) "sums to 1" 1.0 sum;
  check Alcotest.bool "monotone" true (arr.(19) > arr.(18) && arr.(18) > arr.(17))

let kernels_partition_covers () =
  (* Partitioned conv jobs must produce exactly the same output as one
     unpartitioned job. *)
  let run parts =
    let arr, exec = flat_ctx 4096 in
    let rng = Grt_util.Rng.create ~seed:17L in
    for i = 0 to 26 do
      arr.(i) <- Grt_util.Rng.float rng 1.0
    done;
    (* weights: 6 oc x 3 ic x 2 x 2 at float index 256 *)
    for i = 0 to (6 * 3 * 4) - 1 do
      arr.(256 + i) <- Grt_util.Rng.float rng 1.0 -. 0.5
    done;
    let base part_idx part_count =
      {
        Job_desc.op = Shader.Conv2d;
        shader_va = 0L;
        input_va = 0L;
        input2_va = 1024L;
        bias_va = 0L;
        output_va = 2048L;
        params =
          {
            Job_desc.default_params with
            Job_desc.in_c = 3;
            in_h = 3;
            in_w = 3;
            out_c = 6;
            out_h = 2;
            out_w = 2;
            kh = 2;
            kw = 2;
            part_idx;
            part_count;
          };
        next_va = 0L;
      }
    in
    for p = 0 to parts - 1 do
      exec (base p parts)
    done;
    Array.sub arr 512 24
  in
  let whole = run 1 and split = run 3 in
  Array.iteri
    (fun i v -> check (Alcotest.float 1e-6) (Printf.sprintf "out[%d]" i) v split.(i))
    whole

let kernels_partition_range_props =
  qtest "partitions tile the range exactly"
    QCheck2.Gen.(pair (int_range 1 100) (int_range 1 16))
    (fun (total, parts) ->
      let covered = Array.make total 0 in
      for p = 0 to parts - 1 do
        let first, count = Kernels.partition_range ~total ~part_idx:p ~part_count:parts in
        for i = first to first + count - 1 do
          covered.(i) <- covered.(i) + 1
        done
      done;
      Array.for_all (fun c -> c = 1) covered)

let kernels_shape_check () =
  let _, exec = flat_ctx 64 in
  let d =
    {
      Job_desc.op = Shader.Conv2d;
      shader_va = 0L;
      input_va = 0L;
      input2_va = 0L;
      bias_va = 0L;
      output_va = 0L;
      params =
        {
          Job_desc.default_params with
          Job_desc.in_c = 1;
          in_h = 3;
          in_w = 3;
          out_c = 1;
          out_h = 5 (* inconsistent *);
          out_w = 2;
          kh = 2;
          kw = 2;
        };
      next_va = 0L;
    }
  in
  match exec d with
  | () -> Alcotest.fail "bad geometry accepted"
  | exception Kernels.Kernel_fault _ -> ()

let kernels_flops_positive () =
  List.iter
    (fun op ->
      let p =
        {
          Job_desc.default_params with
          Job_desc.in_c = 4;
          in_h = 8;
          in_w = 8;
          in2_c = 4;
          out_c = 8;
          out_h = 8;
          out_w = 8;
          kh = 3;
          kw = 3;
        }
      in
      if Int64.compare (Kernels.flops op p) 0L <= 0 then
        Alcotest.failf "flops of %s not positive" (Shader.op_name op))
    [ Shader.Conv2d; Shader.Depthwise; Shader.Fc; Shader.Maxpool; Shader.Avgpool; Shader.Relu;
      Shader.Copy; Shader.Add; Shader.Concat2; Shader.Softmax; Shader.Tanh; Shader.Sigmoid;
      Shader.Mul ]

(* ---- Kernels against the frozen reference ----

   [Kernels_reference] is the kernel code as it was before [conv2d] staged
   its read set. Random conv, depthwise and maxpool jobs run through both,
   over page-straddling bases, strides below and above the kernel, padding,
   partition splits, outputs placed inside the input and (in the mock
   memory) outputs aliasing the input through a second VA, holes that fault
   and input pages that read as zeros until a write materializes them. *)

type placement = Fresh | Same_va of int | Second_va of int

type kcase = {
  desc : Job_desc.t;
  span : int;  (** bytes of VA from 0 holding the four regions; a second VA of
                   the input's region starts here *)
  region : int;  (** bytes per region, a page multiple *)
  place : placement;
  hole : int option;  (** a page of the span or of the input's alias left unmapped *)
  lazy_input : bool;  (** input pages unmaterialized: read as zeros until written *)
  seed : int64;
}

let print_kcase c =
  let p = c.desc.Job_desc.params in
  Printf.sprintf
    "%s in %dx%dx%d out %dx%dx%d k%dx%d s%d p%d relu %b part %d/%d va in %Lx w %Lx b %Lx out %Lx \
     %s hole %s lazy %b seed %Ld"
    (Shader.op_name c.desc.Job_desc.op) p.Job_desc.in_c p.in_h p.in_w p.out_c p.out_h p.out_w p.kh
    p.kw p.stride p.pad p.relu p.part_idx p.part_count c.desc.input_va c.desc.input2_va
    c.desc.bias_va c.desc.output_va
    (match c.place with
    | Fresh -> "fresh"
    | Same_va i -> Printf.sprintf "same-va@%d" i
    | Second_va i -> Printf.sprintf "second-va@%d" i)
    (match c.hole with Some h -> Printf.sprintf "%x" h | None -> "none")
    c.lazy_input c.seed

let gen_kcase ~mock =
  let open QCheck2.Gen in
  let* op = oneofl [ Shader.Conv2d; Shader.Conv2d; Shader.Conv2d; Shader.Depthwise; Shader.Maxpool ] in
  (* Narrow rows (some with [in_w < stride]) leave gaps in the staging
     masks. Wide rows put whole pages between read rows, so a staged read
     outside the reference's read set shows as an extra page resolved. Long
     rows at stride 1-2 give the staged conv blocks of four interior
     columns, remainders, outputs narrower than four and rows with no
     interior column. *)
  let* shape = frequency [ (4, return `Narrow); (1, return `Wide); (2, return `Long) ] in
  let* in_c = int_range 1 (match shape with `Wide -> 2 | `Narrow | `Long -> 4) in
  let* in_h = int_range 1 (match shape with `Wide -> 5 | `Narrow -> 9 | `Long -> 6) in
  let* in_w =
    match shape with `Wide -> int_range 2048 2600 | `Narrow -> int_range 1 9 | `Long -> int_range 8 40
  in
  let* kh = int_range 1 (match shape with `Wide -> 2 | `Narrow | `Long -> 5) in
  let* kw = int_range 1 (match shape with `Wide -> 2 | `Narrow | `Long -> 5) in
  let* stride = int_range 1 (match shape with `Long -> 2 | `Narrow | `Wide -> 6) in
  let* pad = int_range 0 3 in
  let out_h = ((in_h + (2 * pad) - kh) / stride) + 1
  and out_w = ((in_w + (2 * pad) - kw) / stride) + 1 in
  let* out_c =
    if op = Shader.Conv2d then int_range 1 (match shape with `Long -> 8 | `Narrow | `Wide -> 6)
    else return in_c
  in
  let* part_count = int_range 1 (out_c + 1) in
  let* part_idx = int_range 0 (part_count - 1) in
  let* relu = bool in
  let* has_bias = bool in
  let in_n = in_c * in_h * in_w in
  let w_n =
    match op with Shader.Conv2d -> out_c * in_c * kh * kw | Shader.Depthwise -> in_c * kh * kw | _ -> 0
  in
  let out_n = out_c * max 0 out_h * max 0 out_w in
  let region = ((4 * List.fold_left max out_c [ in_n; w_n; out_n ]) / 4096 * 4096) + 8192 in
  let off = map (fun i -> 4 * i) (int_bound 1023) in
  let* o_in = off and* o_w = off and* o_b = off and* o_out = off in
  let* place =
    let* inside = int_bound (in_n - 1) in
    frequency
      ([ (3, return Fresh); (1, return (Same_va inside)) ]
      @ if mock then [ (1, return (Second_va inside)) ] else [])
  in
  let span = 4 * region in
  let* hole =
    if mock then
      frequency
        [ (2, return None); (1, map (fun i -> Some (4096 * i)) (int_bound (((span + region) / 4096) - 1))) ]
    else return None
  in
  let* lazy_input = match place with Second_va _ -> return false | Fresh | Same_va _ -> if mock then bool else return false in
  let* seed = map Int64.of_int int in
  let input_va = o_in in
  let output_va =
    match place with
    | Fresh -> (3 * region) + o_out
    | Same_va i -> input_va + (4 * i)
    | Second_va i -> span + input_va + (4 * i)
  in
  let desc =
    {
      Job_desc.op;
      shader_va = 0L;
      input_va = Int64.of_int input_va;
      input2_va = Int64.of_int (region + o_w);
      bias_va = (if has_bias then Int64.of_int ((2 * region) + o_b) else 0L);
      output_va = Int64.of_int output_va;
      params =
        {
          Job_desc.default_params with
          Job_desc.in_c;
          in_h;
          in_w;
          out_c;
          out_h;
          out_w;
          kh;
          kw;
          stride;
          pad;
          relu;
          part_idx;
          part_count;
        };
      next_va = 0L;
    }
  in
  return { desc; span; region; place; hole; lazy_input; seed }

(* A quarter of the values are +-2^30, so +-2^60 products cancel inside a
   sum and which small terms survive depends on the order of the adds; the
   rest span 16 binades. *)
let kernel_value rng =
  if Grt_util.Rng.int rng 4 = 0 then if Grt_util.Rng.bool rng then 0x1p30 else -0x1p30
  else (Grt_util.Rng.float rng 2.0 -. 1.0) *. ldexp 1.0 (Grt_util.Rng.int rng 17 - 8)

let outcome f = match f () with () -> "ok" | exception e -> Printexc.to_string e

let kernels_qcheck_flat_matches_reference =
  qtest ~count:400 "kernels write the reference's bytes (Flat)" ~print:print_kcase
    (gen_kcase ~mock:false) (fun c ->
      let run exec =
        let flat = Kernels.Flat.create () in
        let rng = Grt_util.Rng.create ~seed:c.seed in
        for i = 0 to (c.span / 4) - 1 do
          Kernels.Flat.write_f32 flat (Int64.of_int (4 * i)) (kernel_value rng)
        done;
        let r = outcome (fun () -> exec (Kernels.Flat.ctx flat) c.desc) in
        (r, Array.init (c.span / 4) (fun i -> Int64.bits_of_float (Kernels.Flat.read_f32 flat (Int64.of_int (4 * i)))))
      in
      run Kernels.execute = run Kernels_reference.execute)

(* A mock memory: a VA-page table whose misses are logged per stream, with
   an optional hole and the input's pages mapped a second time past the
   span. Unmaterialized pages behave as the device's do: a read sees a
   shared zero page, and a write materializes the page and drops it from
   every read stream caching that VA. *)
exception Hole of int

let mock_memory c =
  let rng = Grt_util.Rng.create ~seed:c.seed in
  let table = Hashtbl.create 64 in
  for pg = 0 to (c.span / 4096) - 1 do
    let b = Bytes.create 4096 in
    for i = 0 to 1023 do
      Bytes.set_int32_le b (4 * i) (Int32.bits_of_float (kernel_value rng))
    done;
    Hashtbl.replace table (4096 * pg) b
  done;
  (match c.place with
  | Second_va _ ->
    for pg = 0 to (c.region / 4096) - 1 do
      Hashtbl.replace table (c.span + (4096 * pg)) (Hashtbl.find table (4096 * pg))
    done
  | Fresh | Same_va _ -> ());
  let unmaterialized = Hashtbl.create 8 in
  if c.lazy_input then
    for pg = 0 to (c.region / 4096) - 1 do
      Hashtbl.remove table (4096 * pg);
      Hashtbl.replace unmaterialized (4096 * pg) ()
    done;
  Option.iter
    (fun h ->
      Hashtbl.remove table h;
      Hashtbl.remove unmaterialized h)
    c.hole;
  let zero = Bytes.make 4096 '\000' and log = ref [] and readers = ref [] in
  let stream name ~write =
    Kernels.new_stream (fun s va ->
        let page = va land lnot 0xFFF in
        log := (name, page) :: !log;
        let p =
          match Hashtbl.find_opt table page with
          | Some p -> p
          | None when not (Hashtbl.mem unmaterialized page) -> raise (Hole page)
          | None when not write -> zero
          | None ->
            let p = Bytes.make 4096 '\000' in
            Hashtbl.remove unmaterialized page;
            Hashtbl.replace table page p;
            List.iter (fun (r : Kernels.stream) -> if r.sbase = page then r.sbase <- -1) !readers;
            p
        in
        s.Kernels.sbase <- page;
        s.Kernels.spage <- p;
        p)
  in
  let c_in = stream "in" ~write:false
  and c_in2 = stream "in2" ~write:false
  and c_bias = stream "bias" ~write:false in
  readers := [ c_in; c_in2; c_bias ];
  (table, log, { Kernels.c_in; c_in2; c_bias; c_out = stream "out" ~write:true })

let kernels_qcheck_mock_matches_reference =
  qtest ~count:400 "kernels resolve, fault and write as the reference (mock memory)"
    ~print:print_kcase (gen_kcase ~mock:true) (fun c ->
      let run exec =
        let table, log, ctx = mock_memory c in
        let r = outcome (fun () -> exec ctx c.desc) in
        let pages =
          Hashtbl.fold (fun va b acc -> (va, Bytes.to_string b) :: acc) table [] |> List.sort compare
        in
        (r, pages, List.sort_uniq compare !log)
      in
      let r, mem, resolved = run Kernels.execute
      and r', mem', resolved' = run Kernels_reference.execute in
      r = r' && mem = mem' && (r <> "ok" || resolved = resolved'))

(* ---- Device ---- *)

let fresh_device ?(sku = Sku.g71_mp8) () =
  let clock = Clock.create () in
  let mem = Mem.create () in
  let dev = Device.create ~clock ~mem ~sku ~session_salt:0x5EEDL () in
  (dev, clock, mem)

let device_identity_regs () =
  let dev, _, _ = fresh_device () in
  check Alcotest.int64 "gpu id" Sku.g71_mp8.Sku.gpu_id (Device.read_reg dev Regs.gpu_id);
  check Alcotest.int64 "shader present" 0xFFL (Device.read_reg dev Regs.shader_present_lo);
  check Alcotest.int64 "as present" 0xFFL (Device.read_reg dev Regs.as_present)

let device_power_sequence () =
  let dev, clock, _ = fresh_device () in
  Device.write_reg dev Regs.shader_pwron_lo 0xFFL;
  check Alcotest.int64 "not ready immediately" 0L (Device.read_reg dev Regs.shader_ready_lo);
  Clock.advance_ns clock (Int64.of_int (Sku.g71_mp8.Sku.power_up_us * 1000 + 1000));
  check Alcotest.int64 "ready after transition" 0xFFL (Device.read_reg dev Regs.shader_ready_lo);
  (* POWER_CHANGED_ALL raised *)
  check Alcotest.bool "irq bit" true
    (Int64.logand (Device.read_reg dev Regs.gpu_irq_rawstat) Regs.irq_power_changed_all <> 0L)

let device_soft_reset () =
  let dev, clock, _ = fresh_device () in
  Device.write_reg dev Regs.shader_pwron_lo 0xFFL;
  Clock.advance_ns clock 1_000_000L;
  Device.write_reg dev Regs.gpu_command Regs.cmd_soft_reset;
  Clock.advance_ns clock (Int64.of_int (Sku.g71_mp8.Sku.reset_us * 1000 + 1000));
  check Alcotest.bool "reset completed bit" true
    (Int64.logand (Device.read_reg dev Regs.gpu_irq_rawstat) Regs.irq_reset_completed <> 0L);
  check Alcotest.int64 "cores powered off by reset" 0L (Device.read_reg dev Regs.shader_ready_lo)

let device_irq_masking () =
  let dev, clock, _ = fresh_device () in
  Device.write_reg dev Regs.gpu_irq_mask 0L;
  Device.write_reg dev Regs.shader_pwron_lo 0x1L;
  Clock.advance_ns clock 10_000_000L;
  check (Alcotest.list Alcotest.bool) "masked irq not pending" []
    (List.map (fun _ -> true) (Device.irq_pending dev));
  Device.write_reg dev Regs.gpu_irq_mask Regs.irq_power_changed_all;
  check Alcotest.bool "unmasked now pending" true (Device.irq_pending dev <> [])

let device_flush_id_changes () =
  let dev, clock, _ = fresh_device () in
  let id0 = Device.read_reg dev Regs.latest_flush_id in
  Device.write_reg dev Regs.gpu_command Regs.cmd_clean_inv_caches;
  Clock.advance_ns clock 100_000_000L;
  let id1 = Device.read_reg dev Regs.latest_flush_id in
  check Alcotest.bool "flush id advanced" false (Int64.equal id0 id1)

let device_session_salt_differs () =
  let clock = Clock.create () in
  let mem = Mem.create () in
  let d1 = Device.create ~clock ~mem ~sku:Sku.g71_mp8 ~session_salt:1L () in
  let d2 = Device.create ~clock ~mem ~sku:Sku.g71_mp8 ~session_salt:2L () in
  check Alcotest.bool "salted flush ids differ" false
    (Int64.equal (Device.read_reg d1 Regs.latest_flush_id) (Device.read_reg d2 Regs.latest_flush_id))

let device_as_command_busy () =
  let dev, clock, _ = fresh_device () in
  Device.write_reg dev (Regs.as_command 1) Regs.as_cmd_flush_mem;
  check Alcotest.int64 "busy during flush" Regs.as_status_flush_active
    (Device.read_reg dev (Regs.as_status 1));
  Clock.advance_ns clock 30_000_000L;
  check Alcotest.int64 "idle after flush" 0L (Device.read_reg dev (Regs.as_status 1))

(* Set up a minimal runnable job directly against the device. *)
let setup_job ?(sku = Sku.g71_mp8) ?(shader_sku = Sku.g71_mp8) () =
  let dev, clock, mem = fresh_device ~sku () in
  (* power up *)
  Device.write_reg dev Regs.l2_pwron_lo (Sku.l2_present_mask sku);
  Device.write_reg dev Regs.shader_pwron_lo (Sku.shader_present_mask sku);
  Clock.advance_ns clock 10_000_000L;
  Device.write_reg dev Regs.job_irq_mask 0xFFFF_FFFFL;
  Device.write_reg dev Regs.mmu_irq_mask 0xFFFF_FFFFL;
  (* page tables *)
  let mmu = Mmu.create mem ~fmt:sku.Sku.pt_format in
  let shader_bin = Shader.compile ~sku:shader_sku ~op:Shader.Relu in
  let code_pa = Mem.alloc_pages mem 1 in
  Mem.write_bytes mem code_pa shader_bin;
  let data_pa = Mem.alloc_pages mem 1 in
  let desc_pa = Mem.alloc_pages mem 1 in
  let code_va = 0x10_0000L and data_va = 0x20_0000L and desc_va = 0x30_0000L in
  Mmu.map_page mmu ~va:code_va ~pa:code_pa ~flags:Mmu.rx_code;
  Mmu.map_page mmu ~va:data_va ~pa:data_pa ~flags:Mmu.rw_data;
  Mmu.map_page mmu ~va:desc_va ~pa:desc_pa ~flags:Mmu.rw_data;
  (* input floats *)
  List.iteri
    (fun i v -> Mem.write_f32 mem (Int64.add data_pa (Int64.of_int (4 * i))) v)
    [ -1.0; 2.0; -3.0; 4.0 ];
  let desc =
    {
      Job_desc.op = Shader.Relu;
      shader_va = code_va;
      input_va = data_va;
      input2_va = 0L;
      bias_va = 0L;
      output_va = Int64.add data_va 64L;
      params =
        {
          Job_desc.default_params with
          Job_desc.in_c = 4;
          in_h = 1;
          in_w = 1;
          out_c = 4;
          out_h = 1;
          out_w = 1;
          flops_hint = 1000L;
        };
      next_va = 0L;
    }
  in
  Job_desc.write mem ~pa:desc_pa desc;
  (* program AS 0 *)
  let root = Mmu.root_pa mmu in
  Device.write_reg dev (Regs.as_transtab_lo 0) (Int64.logand root 0xFFFF_FFFFL);
  Device.write_reg dev (Regs.as_transtab_hi 0) (Int64.shift_right_logical root 32);
  (dev, clock, mem, desc_va, data_pa, desc_pa)

let submit dev desc_va =
  Device.write_reg dev (Regs.js_head_next_lo 0) (Int64.logand desc_va 0xFFFF_FFFFL);
  Device.write_reg dev (Regs.js_head_next_hi 0) (Int64.shift_right_logical desc_va 32);
  Device.write_reg dev (Regs.js_config_next 0) 0L;
  (* AS 0 *)
  Device.write_reg dev (Regs.js_command_next 0) Regs.js_cmd_start

let device_runs_job () =
  let dev, _, mem, desc_va, data_pa, desc_pa = setup_job () in
  submit dev desc_va;
  (match Device.wait_for_irq dev ~timeout_ns:1_000_000_000L with
  | Some Device.Job_irq -> ()
  | _ -> Alcotest.fail "no job irq");
  check Alcotest.bool "done bit" true
    (Int64.logand (Device.read_reg dev Regs.job_irq_rawstat) 1L <> 0L);
  check Alcotest.int64 "slot status done" Regs.js_status_done (Device.read_reg dev (Regs.js_status 0));
  check Alcotest.bool "descriptor status done" true (Job_desc.read_status mem ~pa:desc_pa = Job_desc.Done);
  (* relu output *)
  let out i = Mem.read_f32 mem (Int64.add data_pa (Int64.of_int (64 + (4 * i)))) in
  check (Alcotest.float 1e-6) "clamped" 0.0 (out 0);
  check (Alcotest.float 1e-6) "passed" 2.0 (out 1);
  check Alcotest.int "jobs executed" 1 (Device.jobs_executed dev)

let device_rejects_foreign_shader () =
  (* §2.4: a shader built for another SKU must fault. *)
  let dev, _, _, desc_va, _, _ = setup_job ~sku:Sku.g71_mp8 ~shader_sku:Sku.g76_mp12 () in
  submit dev desc_va;
  (match Device.wait_for_irq dev ~timeout_ns:1_000_000_000L with
  | Some Device.Job_irq -> ()
  | _ -> Alcotest.fail "no irq");
  check Alcotest.bool "fail bit set" true
    (Int64.logand (Device.read_reg dev Regs.job_irq_rawstat) 0x1_0000L <> 0L);
  match Device.last_fault dev with
  | Some msg when String.length msg > 0 ->
    check Alcotest.bool "mentions SKU" true
      (String.length msg >= 6 && String.sub msg 0 6 = "shader")
  | _ -> Alcotest.fail "no fault recorded"

let device_faults_on_unmapped_chain () =
  let dev, _, _, _, _, _ = setup_job () in
  submit dev 0x70_0000L;
  (* unmapped descriptor address *)
  match Device.wait_for_irq dev ~timeout_ns:1_000_000_000L with
  | Some Device.Job_irq ->
    check Alcotest.bool "fail bit" true
      (Int64.logand (Device.read_reg dev Regs.job_irq_rawstat) 0x1_0000L <> 0L);
    check Alcotest.bool "mmu fault latched" true
      (Int64.compare (Device.read_reg dev Regs.mmu_irq_rawstat) 0L > 0)
  | Some Device.Mmu_irq -> ()
  | _ -> Alcotest.fail "expected a fault interrupt"

let device_job_needs_power () =
  let dev, clock, mem = fresh_device () in
  Device.write_reg dev Regs.job_irq_mask 0xFFFF_FFFFL;
  let mmu = Mmu.create mem ~fmt:Sku.Lpae_v7 in
  let root = Mmu.root_pa mmu in
  Device.write_reg dev (Regs.as_transtab_lo 0) (Int64.logand root 0xFFFF_FFFFL);
  Device.write_reg dev (Regs.as_transtab_hi 0) (Int64.shift_right_logical root 32);
  submit dev 0x1000L;
  Clock.advance_ns clock 100_000_000L;
  check Alcotest.bool "fail bit without power" true
    (Int64.logand (Device.read_reg dev Regs.job_irq_rawstat) 0x1_0000L <> 0L)

(* The kernel TLB lives as long as the device, but no chain may see an
   earlier chain's translation: after a remap (and an AS flush) the same
   VAs must read and write the new pages. Input and output sit on pages of
   different TLB slots, so a stale read or write entry both show. *)
let device_tlb_per_chain () =
  let dev, clock, mem, desc_va, data_pa, desc_pa = setup_job () in
  let mmu =
    let root =
      Int64.logor
        (Device.read_reg dev (Regs.as_transtab_lo 0))
        (Int64.shift_left (Device.read_reg dev (Regs.as_transtab_hi 0)) 32)
    in
    Mmu.of_root mem ~fmt:Sku.g71_mp8.Sku.pt_format ~root
  in
  let in_va = 0x20_0000L and out_va = 0x40_1000L in
  let out_pa = Mem.alloc_pages mem 1 in
  Mmu.map_page mmu ~va:out_va ~pa:out_pa ~flags:Mmu.rw_data;
  (match Job_desc.read mem ~pa:desc_pa with
  | Ok d -> Job_desc.write mem ~pa:desc_pa { d with Job_desc.output_va = out_va }
  | Error e -> Alcotest.fail e);
  let run () =
    Device.write_reg dev Regs.job_irq_clear 0xFFFF_FFFFL;
    submit dev desc_va;
    match Device.wait_for_irq dev ~timeout_ns:1_000_000_000L with
    | Some Device.Job_irq ->
      check Alcotest.int64 "slot status done" Regs.js_status_done (Device.read_reg dev (Regs.js_status 0))
    | _ -> Alcotest.fail "no job irq"
  in
  let floats pa = List.init 4 (fun i -> Mem.read_f32 mem (Int64.add pa (Int64.of_int (4 * i)))) in
  let check_floats what want pa = check (Alcotest.list (Alcotest.float 0.0)) what want (floats pa) in
  run ();
  check_floats "first chain" [ 0.0; 2.0; 0.0; 4.0 ] out_pa;
  let in_pa' = Mem.alloc_pages mem 1 and out_pa' = Mem.alloc_pages mem 1 in
  List.iteri
    (fun i v -> Mem.write_f32 mem (Int64.add in_pa' (Int64.of_int (4 * i))) v)
    [ 5.0; -6.0; 7.0; -8.0 ];
  Mmu.map_page mmu ~va:in_va ~pa:in_pa' ~flags:Mmu.rw_data;
  Mmu.map_page mmu ~va:out_va ~pa:out_pa' ~flags:Mmu.rw_data;
  Device.write_reg dev (Regs.as_command 0) Regs.as_cmd_flush_pt;
  Clock.advance_ns clock 1_000_000L;
  run ();
  check_floats "second chain reads and writes the new pages" [ 5.0; 0.0; 7.0; 0.0 ] out_pa';
  check_floats "old output page untouched" [ 0.0; 2.0; 0.0; 4.0 ] out_pa;
  check_floats "old input page untouched" [ -1.0; 2.0; -3.0; 4.0 ] data_pa

(* The job-slot and AS register windows, written out as a table: the field
   a read at each offset returns and the field (and half) a write sets.
   Every offset in both windows and eight bytes either side is written in
   turn, and after each write every one must read back as the table says
   (zero outside the windows). Command
   offsets get values that are no command, so nothing starts. *)
type half = All | Lo | Hi

let slot_reads =
  [ (0x00, "head"); (0x08, "tail"); (0x10, "affinity"); (0x18, "config"); (0x24, "status");
    (0x40, "head_next"); (0x50, "affinity_next"); (0x58, "config_next") ]

let slot_writes =
  [ (0x00, ("head", Lo)); (0x04, ("head", Hi)); (0x08, ("tail", All)); (0x10, ("affinity", All));
    (0x18, ("config", All)); (0x40, ("head_next", Lo)); (0x44, ("head_next", Hi));
    (0x50, ("affinity_next", All)); (0x58, ("config_next", All)) ]

let as_reads =
  [ (0x00, ("transtab", Lo)); (0x04, ("transtab", Hi)); (0x08, ("memattr", All));
    (0x10, ("lockaddr", All)); (0x1C, ("faultstatus", All)); (0x20, ("faultaddress", All));
    (0x28, ("as_status", All)) ]

let as_writes =
  [ (0x00, ("transtab", Lo)); (0x04, ("transtab", Hi)); (0x08, ("memattr", All));
    (0x10, ("lockaddr", All)) ]

let device_window_decode () =
  let dev, _, _ = fresh_device () in
  let model = Hashtbl.create 64 in
  let field key = Option.value ~default:0L (Hashtbl.find_opt model key) in
  for i = 0 to Regs.job_slot_count - 1 do
    Hashtbl.replace model (`Js i, "status") Regs.js_status_idle
  done;
  let window r =
    if r >= 0x1800 && r < 0x1800 + (Regs.job_slot_count * 0x80) then
      Some (`Js ((r - 0x1800) / 0x80), (r - 0x1800) mod 0x80)
    else if r >= 0x2400 && r < 0x2400 + (Regs.as_count * 0x40) then
      Some (`As ((r - 0x2400) / 0x40), (r - 0x2400) mod 0x40)
    else None
  in
  let expect r =
    match window r with
    | Some ((`Js _ as b), off) -> (
      match List.assoc_opt off slot_reads with Some f -> field (b, f) | None -> 0L)
    | Some ((`As _ as b), off) -> (
      match List.assoc_opt off as_reads with
      | Some (f, Lo) -> Int64.logand (field (b, f)) 0xFFFF_FFFFL
      | Some (f, Hi) -> Int64.shift_right_logical (field (b, f)) 32
      | Some (f, All) -> field (b, f)
      | None -> 0L)
    | None -> 0L
  in
  let apply r v =
    let set (b, f, half) =
      let old = field (b, f) in
      Hashtbl.replace model (b, f)
        (match half with
        | All -> v
        | Lo -> Int64.logor (Int64.logand old 0xFFFF_FFFF_0000_0000L) v
        | Hi -> Int64.logor (Int64.logand old 0xFFFF_FFFFL) (Int64.shift_left v 32))
    in
    match window r with
    | Some ((`Js _ as b), off) -> Option.iter (fun (f, h) -> set (b, f, h)) (List.assoc_opt off slot_writes)
    | Some ((`As _ as b), off) -> Option.iter (fun (f, h) -> set (b, f, h)) (List.assoc_opt off as_writes)
    | None -> ()
  in
  let offsets =
    List.concat_map
      (fun (lo, n) -> List.init (n + 16) (fun k -> lo - 8 + k))
      [ (0x1800, Regs.job_slot_count * 0x80); (0x2400, Regs.as_count * 0x40) ]
  in
  List.iter
    (fun r ->
      (* never 0..5, so no slot START and no AS command *)
      let v = Int64.logor (Int64.mul (Int64.of_int (r + 1)) 0x9E37_79B9_7F4A_7C15L) 0x100L in
      Device.write_reg dev r v;
      apply r v;
      List.iter
        (fun r' ->
          let got = Device.read_reg dev r' and want = expect r' in
          if not (Int64.equal got want) then
            Alcotest.failf "after writing %Lx at %x: read %x gave %Lx, want %Lx" v r r' got want)
        offsets)
    offsets

let device_wait_timeout () =
  let dev, _, _ = fresh_device () in
  check Alcotest.bool "timeout returns None" true
    (Device.wait_for_irq dev ~timeout_ns:1_000_000L = None)

let () =
  Alcotest.run "grt_gpu"
    [
      ( "regs",
        [
          Alcotest.test_case "names" `Quick regs_names;
          Alcotest.test_case "disjoint blocks" `Quick regs_disjoint_blocks;
          Alcotest.test_case "nondeterministic set" `Quick regs_nondet;
          Alcotest.test_case "bounds" `Quick regs_bounds;
        ] );
      ( "sku",
        [
          Alcotest.test_case "catalog" `Quick sku_catalog;
          Alcotest.test_case "masks" `Quick sku_masks;
          Alcotest.test_case "ids unique" `Quick sku_ids_unique;
          Alcotest.test_case "throughput ordering" `Quick sku_throughput_ordering;
        ] );
      ( "mem",
        [
          Alcotest.test_case "read/write" `Quick mem_rw;
          Alcotest.test_case "unmapped reads zero" `Quick mem_unmapped_reads_zero;
          Alcotest.test_case "page straddle" `Quick mem_page_boundary_straddle;
          Alcotest.test_case "alloc distinct" `Quick mem_alloc_distinct;
          Alcotest.test_case "dirty tracking" `Quick mem_dirty_tracking;
          Alcotest.test_case "get/set page" `Quick mem_get_set_page;
          mem_qcheck_rw;
        ] );
      ( "mmu",
        [
          Alcotest.test_case "map/translate" `Quick mmu_map_translate;
          Alcotest.test_case "permissions" `Quick mmu_permissions;
          Alcotest.test_case "unmap" `Quick mmu_unmap;
          Alcotest.test_case "block mapping" `Quick mmu_block_mapping;
          Alcotest.test_case "v8 access flag" `Quick mmu_v8_access_flag;
          Alcotest.test_case "table pages" `Quick mmu_table_pages;
          Alcotest.test_case "spans coalesce" `Quick mmu_mapped_spans_coalesce;
          mmu_qcheck_translate;
        ] );
      ( "shader",
        [
          Alcotest.test_case "compile/parse" `Quick shader_compile_parse;
          Alcotest.test_case "deterministic" `Quick shader_deterministic;
          Alcotest.test_case "SKU specific" `Quick shader_sku_specific;
          Alcotest.test_case "opcode roundtrip" `Quick shader_op_codes_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick shader_rejects_garbage;
        ] );
      ( "job_desc",
        [
          Alcotest.test_case "roundtrip" `Quick job_desc_roundtrip;
          Alcotest.test_case "status" `Quick job_desc_status;
          Alcotest.test_case "bad magic" `Quick job_desc_bad_magic;
        ] );
      ( "kernels",
        [
          Alcotest.test_case "conv hand-checked" `Quick kernels_conv_hand;
          Alcotest.test_case "fc bias+relu" `Quick kernels_relu_and_bias;
          Alcotest.test_case "maxpool hand-checked" `Quick kernels_maxpool_hand;
          Alcotest.test_case "softmax normalizes" `Quick kernels_softmax_normalizes;
          Alcotest.test_case "partition equivalence" `Quick kernels_partition_covers;
          kernels_partition_range_props;
          Alcotest.test_case "shape check" `Quick kernels_shape_check;
          Alcotest.test_case "flops positive" `Quick kernels_flops_positive;
          kernels_qcheck_flat_matches_reference;
          kernels_qcheck_mock_matches_reference;
        ] );
      ( "device",
        [
          Alcotest.test_case "identity regs" `Quick device_identity_regs;
          Alcotest.test_case "power sequence" `Quick device_power_sequence;
          Alcotest.test_case "soft reset" `Quick device_soft_reset;
          Alcotest.test_case "irq masking" `Quick device_irq_masking;
          Alcotest.test_case "flush id changes" `Quick device_flush_id_changes;
          Alcotest.test_case "session salt" `Quick device_session_salt_differs;
          Alcotest.test_case "AS command busy window" `Quick device_as_command_busy;
          Alcotest.test_case "runs a job" `Quick device_runs_job;
          Alcotest.test_case "rejects foreign shader" `Quick device_rejects_foreign_shader;
          Alcotest.test_case "faults on unmapped chain" `Quick device_faults_on_unmapped_chain;
          Alcotest.test_case "job needs power" `Quick device_job_needs_power;
          Alcotest.test_case "wait timeout" `Quick device_wait_timeout;
          Alcotest.test_case "kernel TLB per chain" `Quick device_tlb_per_chain;
          Alcotest.test_case "slot and AS window decode" `Quick device_window_decode;
        ] );
    ]
