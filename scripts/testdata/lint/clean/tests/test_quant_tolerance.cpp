// Fixture: quantized-tier test idioms that must stay silent under
// quant-bitwise-oracle.
//
// Prose may discuss EXPECT_EQ(oracle, quant) freely: comments are scrubbed
// before matching.

void test_quant_tolerance() {
  float oracle_logits[4] = {0, 0, 0, 0};
  float quant_logits[4] = {0, 0, 0, 0};
  float twin_logits[4] = {0, 0, 0, 0};
  // The sanctioned bitwise comparison: a quantized network against its
  // dequantized-float twin.
  ASSERT_EQ(quant_logits[0], twin_logits[0]);
  // The sanctioned comparisons: an explicit bound, or the shared gate helper.
  EXPECT_NEAR(oracle_logits[1], quant_logits[1], 1e-4f);
  compare_decisions(oracle_logits, quant_logits);
  // Strings naming the oracle are scrubbed too.
  EXPECT_EQ(lookup("scalar_ref"), lookup("scalar_ref"));
  // Integer decision fields compared between two *quantized* runs are fine —
  // the rule keys on oracle identifiers, not on EXPECT_EQ itself.
  EXPECT_EQ(quant_logits[2], quant_logits[3]);
  // A justified waiver silences the rule like everywhere else.
  // lint:allow(quant-bitwise-oracle): exact-zero weights quantize losslessly.
  EXPECT_EQ(oracle_logits[0], quant_logits[0]);
}
