"""Unit tests for the composite branch predictor."""

from repro.isa.instructions import Instruction
from repro.pipeline.branch_predictor import (BranchPredictor,
                                             BranchTargetBuffer,
                                             GsharePredictor,
                                             ReturnAddressStack)


def test_gshare_learns_a_bias():
    predictor = GsharePredictor(history_bits=8)
    pc = 0x40
    # The global history register saturates to all-taken after 8 iterations;
    # further training then hits a stable table index.
    for _ in range(12):
        taken, snapshot = predictor.predict(pc)
        predictor.update(pc, snapshot, True)
        predictor.repair_history(snapshot, True)
    taken, _ = predictor.predict(pc)
    assert taken


def test_gshare_initially_predicts_not_taken():
    predictor = GsharePredictor()
    taken, _ = predictor.predict(123)
    assert not taken


def test_gshare_history_repair():
    predictor = GsharePredictor(history_bits=4)
    _, snapshot = predictor.predict(7)
    predictor.repair_history(snapshot, True)
    assert predictor.history == ((snapshot << 1) | 1) & 0xF


def test_btb_stores_and_overwrites():
    btb = BranchTargetBuffer(entries=16)
    assert btb.predict(5) is None
    btb.update(5, 100)
    assert btb.predict(5) == 100
    btb.update(5, 200)
    assert btb.predict(5) == 200


def test_btb_tag_rejects_aliased_lookup():
    btb = BranchTargetBuffer(entries=16)
    btb.update(1, 100)
    assert btb.predict(1) == 100
    assert btb.predict(17) is None    # 17 % 16 == 1, but the tag mismatches


def test_btb_alias_ok_plants_wildcard_entry():
    btb = BranchTargetBuffer(entries=16)
    # The attacker trains from its own, aliased address (33 % 16 == 1) and
    # the victim's branch at PC 1 picks the planted target up.
    btb.update(33, 0x900, alias_ok=True)
    assert btb.predict(1) == 0x900
    assert btb.predict(17) == 0x900
    # A tagged resolution-time update evicts the wildcard entry.
    btb.update(1, 0x700)
    assert btb.predict(1) == 0x700
    assert btb.predict(17) is None


def test_ras_lifo_and_bound():
    ras = ReturnAddressStack(entries=2)
    ras.push(10)
    ras.push(20)
    ras.push(30)                      # overflows: drops the oldest
    assert ras.depth() == 2
    assert ras.pop() == 30
    assert ras.pop() == 20
    assert ras.pop() is None          # underflow is explicit, not an error


def test_ras_snapshot_restore_roundtrip():
    ras = ReturnAddressStack(entries=4)
    ras.push(10)
    ras.push(20)
    state = ras.snapshot()
    ras.pop()
    ras.push(30)
    ras.push(40)
    ras.restore(state)
    assert ras.pop() == 20
    assert ras.pop() == 10
    assert ras.pop() is None


def test_composite_branch_prediction_flow():
    predictor = BranchPredictor()
    branch = Instruction("BNE", rs1=1, rs2=2, imm=50)
    taken, target, snapshot = predictor.predict(10, branch)
    assert target in (50, 11)
    predictor.resolve(10, branch, True, 50, snapshot, mispredicted=not taken)
    for _ in range(16):     # saturate history, then saturate the counter
        t, target, snapshot = predictor.predict(10, branch)
        predictor.resolve(10, branch, True, 50, snapshot,
                          mispredicted=(t is not True))
    taken, target, _ = predictor.predict(10, branch)
    assert taken and target == 50


def test_composite_jal_pushes_ras_for_calls():
    predictor = BranchPredictor()
    call = Instruction("JAL", rd=1, imm=99)            # rd = ra: a call
    taken, target, _ = predictor.predict(5, call)
    assert taken and target == 99
    ret = Instruction("JALR", rd=0, rs1=1, imm=0)      # jalr zero, ra: return
    taken, target, _ = predictor.predict(99, ret)
    assert target == 6                                  # return address


def test_composite_jalr_uses_btb():
    predictor = BranchPredictor()
    jump = Instruction("JALR", rd=0, rs1=5, imm=0)
    _, target, _ = predictor.predict(20, jump)
    assert target is None                               # untrained
    predictor.resolve(20, jump, True, 77, 0, mispredicted=True)
    _, target, _ = predictor.predict(20, jump)
    assert target == 77


def test_train_btb_attack_interface():
    predictor = BranchPredictor()
    predictor.train_btb(13, 0xBEEF & 0xFFFF)
    jump = Instruction("JALR", rd=0, rs1=6, imm=0)
    _, target, _ = predictor.predict(13, jump)
    assert target == 0xBEEF & 0xFFFF


def test_train_btb_alias_ok_hits_congruent_victim_pc():
    predictor = BranchPredictor(btb_entries=64)
    jump = Instruction("JALR", rd=0, rs1=6, imm=0)
    # Tagged training from an aliased PC must NOT redirect the victim...
    predictor.train_btb(13 + 64, 0x500)
    _, target, _ = predictor.predict(13, jump)
    assert target is None
    # ...but alias_ok training (Spectre-BTB) must.
    predictor.train_btb(13 + 64, 0x500, alias_ok=True)
    _, target, _ = predictor.predict(13, jump)
    assert target == 0x500


def test_speculative_state_snapshot_restores_ras_and_history():
    predictor = BranchPredictor()
    call = Instruction("JAL", rd=1, imm=99)
    branch = Instruction("BNE", rs1=1, rs2=2, imm=50)
    predictor.predict(5, call)                  # RAS: [6]
    state = predictor.speculative_state()
    predictor.predict(10, branch)               # speculative history bit
    predictor.predict(20, call)                 # wrong-path push: RAS [6, 21]
    ret = Instruction("JALR", rd=0, rs1=1, imm=0)
    predictor.predict(99, ret)                  # wrong-path pop
    predictor.restore_speculative_state(state)
    assert predictor.direction.history == state[0]
    _, target, _ = predictor.predict(99, ret)
    assert target == 6                          # the pre-wrong-path entry
