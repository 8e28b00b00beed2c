include Grt_tee.Recording
