// Fixture: quantized-tier tests comparing floats bitwise against the float
// oracle. A quantized network is bitwise identical only to its
// dequantized-float twin, so both must trip quant-bitwise-oracle (pinned at
// lines 10 and 11).

void test_quant_gate() {
  float oracle_logits[4] = {0, 0, 0, 0};
  float float_oracle_logits[4] = {0, 0, 0, 0};
  float quant_logits[4] = {0, 0, 0, 0};
  EXPECT_FLOAT_EQ(oracle_logits[0], quant_logits[0]);
  ASSERT_EQ(quant_logits[1], float_oracle_logits[1]);
}
