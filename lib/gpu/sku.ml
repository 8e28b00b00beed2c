type pt_format = Lpae_v7 | Lpae_v8

type t = {
  name : string;
  gpu_id : int64;
  shader_cores : int;
  tiler_units : int;
  l2_slices : int;
  address_spaces : int;
  clock_mhz : int;
  flops_scale : float;
  pt_format : pt_format;
  quirk_shader_config : int64;
  quirk_mmu_config : int64;
  needs_snoop_disparity : bool;
  power_up_us : int;
  reset_us : int;
}

let g71_mp8 =
  {
    name = "Mali-G71 MP8";
    gpu_id = 0x6000_0101L;
    shader_cores = 8;
    tiler_units = 1;
    l2_slices = 2;
    address_spaces = 8;
    clock_mhz = 850;
    flops_scale = 1.0;
    pt_format = Lpae_v7;
    quirk_shader_config = 0x0000_0040L;
    quirk_mmu_config = 0x0000_0008L;
    needs_snoop_disparity = true;
    power_up_us = 120;
    reset_us = 350;
  }

let g52_mp4 =
  {
    name = "Mali-G52 MP4";
    gpu_id = 0x7402_0000L;
    shader_cores = 4;
    tiler_units = 1;
    l2_slices = 1;
    address_spaces = 8;
    clock_mhz = 950;
    flops_scale = 0.62;
    pt_format = Lpae_v8;
    quirk_shader_config = 0x0000_0040L;
    quirk_mmu_config = 0x0000_0000L;
    needs_snoop_disparity = false;
    power_up_us = 90;
    reset_us = 280;
  }

let g31_mp2 =
  {
    name = "Mali-G31 MP2";
    gpu_id = 0x7003_0000L;
    shader_cores = 2;
    tiler_units = 1;
    l2_slices = 1;
    address_spaces = 4;
    clock_mhz = 650;
    flops_scale = 0.21;
    pt_format = Lpae_v8;
    quirk_shader_config = 0x0000_0000L;
    quirk_mmu_config = 0x0000_0000L;
    needs_snoop_disparity = false;
    power_up_us = 70;
    reset_us = 220;
  }

let g76_mp12 =
  {
    name = "Mali-G76 MP12";
    gpu_id = 0x7201_0011L;
    shader_cores = 12;
    tiler_units = 1;
    l2_slices = 4;
    address_spaces = 8;
    clock_mhz = 800;
    flops_scale = 2.4;
    pt_format = Lpae_v8;
    quirk_shader_config = 0x0000_0400L;
    quirk_mmu_config = 0x0000_0008L;
    needs_snoop_disparity = true;
    power_up_us = 150;
    reset_us = 400;
  }

let g72_mp12 =
  {
    name = "Mali-G72 MP12";
    gpu_id = 0x6221_0030L;
    shader_cores = 12;
    tiler_units = 1;
    l2_slices = 2;
    address_spaces = 8;
    clock_mhz = 850;
    flops_scale = 1.7;
    pt_format = Lpae_v7;
    quirk_shader_config = 0x0000_0040L;
    quirk_mmu_config = 0x0000_0008L;
    needs_snoop_disparity = true;
    power_up_us = 130;
    reset_us = 360;
  }

let all = [ g71_mp8; g52_mp4; g31_mp2; g76_mp12; g72_mp12 ]

let find name = List.find_opt (fun s -> String.equal s.name name) all

let mask_of_count n = Int64.sub (Int64.shift_left 1L n) 1L

let shader_present_mask t = mask_of_count t.shader_cores
let tiler_present_mask t = mask_of_count t.tiler_units
let l2_present_mask t = mask_of_count t.l2_slices

let flops_per_s t = Grt_sim.Costs.gpu_flops_per_s *. t.flops_scale

let pp ppf t =
  Format.fprintf ppf "%s (id=%08Lx, %d cores, %d MHz)" t.name t.gpu_id t.shader_cores t.clock_mhz

let find_by_id gpu_id = List.find_opt (fun s -> Int64.equal s.gpu_id gpu_id) all
