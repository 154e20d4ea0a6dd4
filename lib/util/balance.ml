let heavy ~fanout ~block ~child ~parent =
  parent > 4 * block
  && (4 * (child + 1) > 3 * (parent + 1) || fanout * (child + 1) > 4 * (parent + 1))
