include Two_level.Make (struct
  let name = "solution2"
  let tag = "sol2"
  let fanout ~block = max 4 (block / 4)
  let kid_share ~fanout = (4, fanout + 1)
end)
