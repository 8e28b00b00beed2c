include Grt_tee.Mode
